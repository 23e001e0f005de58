package persist

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"cardirect/internal/config"
	"cardirect/internal/core"
	"cardirect/internal/geom"
	"cardirect/internal/workload"
)

// buildImage assembles a document from generated regions, ids r000, r001, …
func buildImage(t testing.TB, regions []geom.Region) *config.Image {
	t.Helper()
	img := &config.Image{Name: "persist-test", File: "persist.png"}
	for i, g := range regions {
		id := fmt.Sprintf("r%03d", i)
		if err := img.AddRegion(id, "Region "+id, "", g); err != nil {
			t.Fatal(err)
		}
	}
	return img
}

func openForTest(t testing.TB, dir string, seed *config.Image) *Store {
	t.Helper()
	s, err := Open(dir, seed, Options{Pct: true})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// statePairs captures the comparable store state: qualitative and percent
// matrices for every ordered pair.
func statePairs(t testing.TB, tr *config.Tracked) ([]core.PairRelation, []core.PairPercent) {
	t.Helper()
	pairs := tr.Store().Pairs()
	pcts, err := tr.Store().PctPairs()
	if err != nil {
		t.Fatal(err)
	}
	return pairs, pcts
}

// TestFreshInitAndRecovery opens a fresh directory, edits through the
// store, crashes (Close) and recovers; the recovered state must match a
// from-scratch computation over the same final document.
func TestFreshInitAndRecovery(t *testing.T) {
	dir := t.TempDir()
	gen := workload.New(7)
	regions := gen.Scatter(10, 10)
	extra := gen.Scatter(3, 8)

	s := openForTest(t, dir, buildImage(t, regions))
	if err := s.AddRegion("zzz", "Added", "#123456", extra[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.SetRegionGeometry("r003", extra[1]); err != nil {
		t.Fatal(err)
	}
	if err := s.RenameRegion("r005", "renamed"); err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveRegion("r007"); err != nil {
		t.Fatal(err)
	}
	wantPairs, wantPcts := statePairs(t, s.Tracked())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.AddRegion("after-close", "x", "", extra[2]); err == nil {
		t.Fatal("edit after Close succeeded")
	}

	// Recover without a seed: the directory is the source of truth.
	r := openForTest(t, dir, nil)
	defer r.Close()
	st := r.Status()
	if st.RecoveredFrom != "binary" {
		t.Errorf("recovered from %q, want the binary snapshot", st.RecoveredFrom)
	}
	if st.ReplayedRecords != 4 {
		t.Errorf("replayed %d records, want 4", st.ReplayedRecords)
	}
	if st.Corruption != "" {
		t.Errorf("clean log reported corruption: %s", st.Corruption)
	}
	if st.RecoveryNs <= 0 {
		t.Errorf("recovery_ns = %d, want > 0", st.RecoveryNs)
	}
	gotPairs, gotPcts := statePairs(t, r.Tracked())
	if !reflect.DeepEqual(gotPairs, wantPairs) {
		t.Fatal("recovered relations differ from pre-crash state")
	}
	// Percent matrices and tile areas are recomputed from the snapshot's
	// exact coordinates, so they match bit for bit.
	if !reflect.DeepEqual(gotPcts, wantPcts) {
		t.Fatal("recovered percent matrices differ from pre-crash state")
	}

	// A seed given alongside an initialised directory is ignored.
	r2 := openForTest(t, t.TempDir(), buildImage(t, regions[:2]))
	r2.Close()
	r3 := openForTest(t, dir, buildImage(t, regions[:2]))
	defer r3.Close()
	if got := r3.Tracked().Store().Len(); got != len(wantPairsRegions(wantPairs)) {
		t.Errorf("seed overrode durable state: %d regions", got)
	}
}

// wantPairsRegions derives the region set size from an all-pairs list.
func wantPairsRegions(pairs []core.PairRelation) map[string]bool {
	set := make(map[string]bool)
	for _, p := range pairs {
		set[p.Primary] = true
		set[p.Reference] = true
	}
	return set
}

// TestSnapshotRotation checks Snapshot advances the generation, truncates
// the log, retires the previous generation's files, and that recovery from
// the rotated state replays nothing.
func TestSnapshotRotation(t *testing.T) {
	dir := t.TempDir()
	gen := workload.New(11)
	s := openForTest(t, dir, buildImage(t, gen.Scatter(6, 8)))
	if err := s.AddRegion("extra", "Extra", "", gen.Scatter(1, 8)[0]); err != nil {
		t.Fatal(err)
	}
	info, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if info.Seq != 2 || info.Regions != 7 || info.Bytes <= 0 {
		t.Fatalf("unexpected snapshot info: %+v", info)
	}
	wantPairs, _ := statePairs(t, s.Tracked())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	want := []string{"snapshot-00000002.bin", "snapshot-00000002.xml", "wal-00000002.log"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("directory after rotation: %v, want %v", names, want)
	}

	r := openForTest(t, dir, nil)
	defer r.Close()
	st := r.Status()
	if st.Seq != 2 || st.ReplayedRecords != 0 || st.RecoveredFrom != "binary" {
		t.Fatalf("recovery after rotation: %+v", st)
	}
	gotPairs, _ := statePairs(t, r.Tracked())
	if !reflect.DeepEqual(gotPairs, wantPairs) {
		t.Fatal("state diverged across rotation + recovery")
	}
}

// TestRecoveryDiscardsTornTail truncates and bit-flips the live log; in
// every case recovery must succeed with a prefix of the edits and report
// the corruption, never fail.
func TestRecoveryDiscardsTornTail(t *testing.T) {
	gen := workload.New(13)
	base := gen.Scatter(5, 8)
	adds := gen.Scatter(4, 8)

	build := func(t *testing.T) (string, []byte) {
		dir := t.TempDir()
		s := openForTest(t, dir, buildImage(t, base))
		for i, g := range adds {
			if err := s.AddRegion(fmt.Sprintf("add%d", i), "A", "", g); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		logPath := filepath.Join(dir, "wal-00000001.log")
		data, err := os.ReadFile(logPath)
		if err != nil {
			t.Fatal(err)
		}
		return dir, data
	}

	t.Run("truncated", func(t *testing.T) {
		dir, data := build(t)
		logPath := filepath.Join(dir, "wal-00000001.log")
		if err := os.WriteFile(logPath, data[:len(data)-7], 0o644); err != nil {
			t.Fatal(err)
		}
		r := openForTest(t, dir, nil)
		defer r.Close()
		st := r.Status()
		if st.Corruption == "" {
			t.Error("torn tail not reported")
		}
		if st.ReplayedRecords != len(adds)-1 {
			t.Errorf("replayed %d, want %d", st.ReplayedRecords, len(adds)-1)
		}
		// The truncated log must be appendable again after recovery.
		if err := r.AddRegion("post", "P", "", adds[0]); err != nil {
			t.Fatalf("append after torn-tail recovery: %v", err)
		}
	})

	t.Run("bitflip", func(t *testing.T) {
		dir, data := build(t)
		logPath := filepath.Join(dir, "wal-00000001.log")
		flipped := bytes.Clone(data)
		flipped[len(flipped)-5] ^= 0x10
		if err := os.WriteFile(logPath, flipped, 0o644); err != nil {
			t.Fatal(err)
		}
		r := openForTest(t, dir, nil)
		defer r.Close()
		st := r.Status()
		if st.Corruption == "" {
			t.Error("bit flip not reported")
		}
		if st.ReplayedRecords >= len(adds) {
			t.Errorf("replayed %d records from a damaged log of %d", st.ReplayedRecords, len(adds))
		}
	})
}

// TestRecoverySkipsUnreadableSnapshot plants a garbage higher-seq snapshot;
// recovery must fall back to the intact generation, then clean up.
func TestRecoverySkipsUnreadableSnapshot(t *testing.T) {
	dir := t.TempDir()
	gen := workload.New(17)
	s := openForTest(t, dir, buildImage(t, gen.Scatter(5, 8)))
	wantPairs, _ := statePairs(t, s.Tracked())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A rotation that crashed after renaming the snapshot but before
	// anything else: half-written XML at a higher generation.
	bad := filepath.Join(dir, "snapshot-00000002.xml")
	if err := os.WriteFile(bad, []byte("<Image name=\"x\""), 0o644); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, "snapshot-12345.tmp")
	if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	r := openForTest(t, dir, nil)
	defer r.Close()
	if got := r.Status().Seq; got != 1 {
		t.Fatalf("recovered generation %d, want fallback to 1", got)
	}
	gotPairs, _ := statePairs(t, r.Tracked())
	if !reflect.DeepEqual(gotPairs, wantPairs) {
		t.Fatal("fallback recovery lost state")
	}
	for _, stale := range []string{bad, tmp} {
		if _, err := os.Stat(stale); !os.IsNotExist(err) {
			t.Errorf("stale file survived recovery: %s", stale)
		}
	}
}

// TestOpenErrors covers the refusal cases: no snapshot and no seed, and a
// directory whose only snapshot is unreadable.
func TestOpenErrors(t *testing.T) {
	if _, err := Open(t.TempDir(), nil, Options{}); err == nil {
		t.Error("Open of an empty dir without a seed succeeded")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "snapshot-00000001.xml"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, nil, Options{}); err == nil {
		t.Error("Open with only an unreadable snapshot succeeded")
	}
}

// TestSnapshotRefusesEmptyWorld: the DTD requires at least one region, so
// snapshotting an emptied configuration must fail cleanly.
func TestSnapshotRefusesEmptyWorld(t *testing.T) {
	gen := workload.New(19)
	s := openForTest(t, t.TempDir(), buildImage(t, gen.Scatter(1, 8)))
	defer s.Close()
	if err := s.RemoveRegion("r000"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Snapshot(); err == nil {
		t.Fatal("snapshot of an empty configuration succeeded")
	}
}

// TestRecoveryDropsLegacyRelations recovers from a generation written when
// snapshots still carried every relation: the store is rebuilt from the
// regions, the relation list never reaches the live image, and the answers
// equal a fresh Track — from the binary file and from the XML alike.
func TestRecoveryDropsLegacyRelations(t *testing.T) {
	dir := t.TempDir()
	legacy := buildImage(t, workload.New(53).Cluster(24, 2, 10))
	if err := legacy.ComputeRelations(true); err != nil {
		t.Fatal(err)
	}
	if len(legacy.Relations) != 24*23 {
		t.Fatalf("legacy document carries %d relations, want %d", len(legacy.Relations), 24*23)
	}
	data, err := legacy.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapshotName(1)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, binSnapshotName(1)), encodeBinarySnapshot(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	fresh, err := config.Track(legacy.RegionsOnly(), core.StoreOptions{Pct: true})
	if err != nil {
		t.Fatal(err)
	}
	wantPairs, wantPcts := statePairs(t, fresh)

	for _, from := range []string{"binary", "xml"} {
		if from == "xml" {
			if err := os.Remove(filepath.Join(dir, binSnapshotName(1))); err != nil {
				t.Fatal(err)
			}
		}
		s := openForTest(t, dir, nil)
		if got := s.Status().RecoveredFrom; got != from {
			t.Fatalf("recovered from %q, want %s", got, from)
		}
		s.Tracked().View(func(img *config.Image) error {
			if len(img.Relations) != 0 {
				t.Errorf("%s recovery left %d relations in the live image", from, len(img.Relations))
			}
			return nil
		})
		gotPairs, gotPcts := statePairs(t, s.Tracked())
		if !reflect.DeepEqual(gotPairs, wantPairs) || !reflect.DeepEqual(gotPcts, wantPcts) {
			t.Fatalf("%s recovery differs from a fresh Track", from)
		}
		s.Close()
	}
}

// TestSnapshotHoldsRegionsOnly rotates a 500-region world with percent
// matrices on: both snapshot files hold the regions and no relation, and
// the XML stays under 1 MiB (the relations would add n(n−1) entries).
func TestSnapshotHoldsRegionsOnly(t *testing.T) {
	const n = 500
	s := openForTest(t, t.TempDir(), buildImage(t, workload.New(59).Scatter(n, 10)))
	defer s.Close()
	info, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if info.Bytes <= 0 || info.Bytes >= 1<<20 {
		t.Fatalf("rotated snapshot is %d bytes, want under 1 MiB", info.Bytes)
	}
	xmlDoc, err := loadSnapshot(info.Path)
	if err != nil {
		t.Fatal(err)
	}
	binDoc, err := loadBinarySnapshot(filepath.Join(s.Dir(), binSnapshotName(info.Seq)))
	if err != nil {
		t.Fatal(err)
	}
	for format, doc := range map[string]*config.Image{"xml": xmlDoc, "binary": binDoc} {
		if len(doc.Regions) != n || len(doc.Relations) != 0 {
			t.Errorf("%s snapshot holds %d regions and %d relations, want %d and 0",
				format, len(doc.Regions), len(doc.Relations), n)
		}
	}
	st, err := os.Stat(filepath.Join(s.Dir(), binSnapshotName(info.Seq)))
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() >= 1<<20 {
		t.Fatalf("binary snapshot is %d bytes, want under 1 MiB", st.Size())
	}
}
