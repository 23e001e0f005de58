package replica_test

import (
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"cardirect/internal/config"
	"cardirect/internal/core"
	"cardirect/internal/geom"
	"cardirect/internal/persist"
	"cardirect/internal/replica"
	"cardirect/internal/serve"
	"cardirect/internal/wal"
	"cardirect/internal/workload"
)

// recoveryWorlds are the differential fixtures: a scatter world the MBB fast
// paths mostly answer, and a cluster world whose overlapping members defeat
// them, salted with boxes lying exactly on members' bounding-box lines so
// the on-line tie-breaks run too.
func recoveryWorlds() map[string][]geom.Region {
	gen := workload.New(43)
	cluster := gen.Cluster(40, 3, 16)
	for _, r := range cluster[:8] {
		// One box sharing the member's west line, one whose south edge
		// lies on its north line.
		bb := r.BoundingBox()
		cluster = append(cluster, workload.BoxRegion(bb.MinX-3, bb.MinY, bb.MinX, bb.MaxY),
			workload.BoxRegion((bb.MinX+bb.MaxX)/2, bb.MaxY, bb.MaxX+1, bb.MaxY+1))
	}
	return map[string][]geom.Region{
		"scatter": gen.Scatter(48, 10),
		"cluster": cluster,
	}
}

// sameRelations fails unless both stores hold identical qualitative pairs
// and bit-identical percent pairs. fmt prints each float in the shortest
// form that parses back to it, so equal text means equal bits.
func sameRelations(t *testing.T, what string, got, want *core.RelationStore) {
	t.Helper()
	if !reflect.DeepEqual(got.Pairs(), want.Pairs()) {
		t.Fatalf("%s: qualitative relations differ", what)
	}
	gotPcts, err := got.PctPairs()
	if err != nil {
		t.Fatal(err)
	}
	wantPcts, err := want.PctPairs()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(gotPcts) != fmt.Sprint(wantPcts) {
		t.Fatalf("%s: percent matrices differ", what)
	}
}

// TestRecoveryDifferential drives a durable replication primary through
// geometry, add, delete and rename edits on both sides of a snapshot
// rotation, then rebuilds the world from the geometry-only snapshot three
// ways: reopening the data directory from the binary snapshot, reopening it
// from the XML, and bootstrapping a replica over HTTP. Each must hold the
// relations of the live primary and of a fresh Track, bit for bit.
func TestRecoveryDifferential(t *testing.T) {
	for name, regions := range recoveryWorlds() {
		t.Run(name, func(t *testing.T) {
			img := &config.Image{Name: name}
			for i, g := range regions {
				if err := img.AddRegion(fmt.Sprintf("r%03d", i), "", "", g); err != nil {
					t.Fatal(err)
				}
			}
			dir := t.TempDir()
			popt := persist.Options{Workers: 2, Pct: true, Logger: quietLogger(),
				Sync: wal.Options{Policy: wal.SyncNever}}
			ps, err := persist.Open(dir, img, popt)
			if err != nil {
				t.Fatal(err)
			}
			tr := ps.Tracked()
			prim := replica.NewPrimary(tr, ps, replica.PrimaryOptions{Pct: true})
			srv := serve.New(tr, serve.Options{Logger: quietLogger(), Persist: ps, Repl: prim, Editor: prim})
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			p := &primaryFixture{tr: tr, prim: prim, ts: ts}

			edits := workload.New(47).Scatter(4, 12)
			edit := func(step int) {
				t.Helper()
				var err error
				switch step % 4 {
				case 0:
					err = prim.SetRegionGeometry(fmt.Sprintf("r%03d", step+1), edits[step%len(edits)])
				case 1:
					err = prim.AddRegion(fmt.Sprintf("added%d", step), "Added", "#abcdef", edits[step%len(edits)])
				case 2:
					err = prim.RemoveRegion(fmt.Sprintf("r%03d", step+2))
				case 3:
					err = prim.RenameRegion(fmt.Sprintf("r%03d", step+3), fmt.Sprintf("renamed%d", step))
				}
				if err != nil {
					t.Fatalf("edit %d: %v", step, err)
				}
			}
			// Four edits land in the rotated snapshot, four in the WAL tail
			// that recovery replays.
			for step := 0; step < 4; step++ {
				edit(step)
			}
			if _, err := ps.Snapshot(); err != nil {
				t.Fatal(err)
			}
			for step := 4; step < 8; step++ {
				edit(step)
			}

			var fresh *config.Tracked
			tr.View(func(img *config.Image) error {
				fresh, err = config.Track(img.RegionsOnly(), core.StoreOptions{Workers: 1, Pct: true})
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			sameRelations(t, "live primary vs fresh Track", tr.Store(), fresh.Store())

			rf := newReplicaFixture(t, ts.URL, "")
			waitCaughtUp(t, p, rf.rep)
			sameRelations(t, "bootstrapped replica", rf.rep.Tracked().Store(), fresh.Store())
			rf.rep.Tracked().View(func(img *config.Image) error {
				if len(img.Relations) != 0 {
					t.Errorf("replica image holds %d relations", len(img.Relations))
				}
				return nil
			})
			rf.stop()

			if err := ps.Close(); err != nil {
				t.Fatal(err)
			}
			for _, from := range []string{"binary", "xml"} {
				if from == "xml" {
					if err := os.Remove(filepath.Join(dir, "snapshot-00000002.bin")); err != nil {
						t.Fatal(err)
					}
				}
				re, err := persist.Open(dir, nil, popt)
				if err != nil {
					t.Fatal(err)
				}
				st := re.Status()
				if st.RecoveredFrom != from || st.ReplayedRecords != 4 {
					t.Fatalf("recovered from %q replaying %d records, want %s and 4", st.RecoveredFrom, st.ReplayedRecords, from)
				}
				sameRelations(t, "recovered from "+from, re.Tracked().Store(), tr.Store())
				sameRelations(t, "recovered from "+from+" vs fresh Track", re.Tracked().Store(), fresh.Store())
				re.Close()
				re.Tracked().Close()
			}
		})
	}
}
