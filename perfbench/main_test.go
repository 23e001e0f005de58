package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"cardirect"
	"cardirect/internal/serve"
)

// stubEnv makes the test binary act as a cardirectd whose /v1/relation
// answers are wrong, so the checks can be shown to catch them.
const stubEnv = "PERFBENCH_STUB_DAEMON"

func TestMain(m *testing.M) {
	if os.Getenv(stubEnv) != "" {
		if err := stubDaemon(os.Args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "stub daemon:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// stubDaemon serves -config in memory like cardirectd, but rewrites every
// /v1/relation answer to a relation the pair does not have.
func stubDaemon(args []string) error {
	fs := flag.NewFlagSet("stub", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:0", "")
	fs.Bool("snapshot-on-exit", false, "")
	path := fs.String("config", "", "")
	if err := fs.Parse(args); err != nil {
		return err
	}
	f, err := os.Open(*path)
	if err != nil {
		return err
	}
	img, err := cardirect.LoadImage(f)
	f.Close()
	if err != nil {
		return err
	}
	tr, err := cardirect.Track(img, cardirect.StoreOptions{Pct: true})
	if err != nil {
		return err
	}
	h := serve.New(tr, serve.Options{}).Handler()
	wrong := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/relation" {
			h.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		var resp map[string]map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp["data"] == nil {
			w.WriteHeader(rec.Code)
			w.Write(rec.Body.Bytes())
			return
		}
		if resp["data"]["relation"] == "N" {
			resp["data"]["relation"] = "S"
		} else {
			resp["data"]["relation"] = "N"
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(resp)
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Printf("cardirectd: listening on %s\n", ln.Addr())
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()
	srv := &http.Server{Handler: wrong}
	go func() {
		<-ctx.Done()
		srv.Close()
	}()
	if err := srv.Serve(ln); err != http.ErrServerClosed {
		return err
	}
	return nil
}

// summary runs the benchmark with args and returns its printed report and
// the parsed final line.
func summary(t *testing.T, args ...string) (string, map[string]any) {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("run %v: %v\n%s", args, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not the JSON summary: %v\n%s", err, out.String())
	}
	return out.String(), last
}

func TestWrongRelationCountsAsError(t *testing.T) {
	t.Setenv(stubEnv, "1")
	report, last := summary(t, "-bin", os.Args[0], "-out", t.TempDir(), "-n", "30",
		"--workload", "read_mix", "--seed", "1", "--seconds", "2", "--trace", "0")
	if last["correct"] != false || last["failed"].(float64) == 0 {
		t.Fatalf("wrong relations went uncounted: %v", last)
	}
	ratio := last["metrics"].(map[string]any)["error_ratio"].(map[string]any)["value"].(float64)
	if ratio <= 0 {
		t.Fatalf("error_ratio = %v, want > 0\n%s", ratio, report)
	}
	if !strings.Contains(report, "relation answers disagree with the oracle") {
		t.Fatalf("report does not name the wrong relation answers:\n%s", report)
	}
}

// TestTinyRuns runs every workload at a tiny size, end to end and traced,
// and checks that each named metric is printed and every answer checks
// out — except reason_mix's invalid witnesses, a known defect the run
// must report rather than hide.
func TestTinyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("builds cardirectd and starts daemons")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go toolchain on PATH to build cardirectd")
	}
	bin := filepath.Join(t.TempDir(), "cardirectd")
	if out, err := exec.Command("go", "build", "-o", bin, "cardirect/cmd/cardirectd").CombinedOutput(); err != nil {
		t.Fatalf("building cardirectd: %v\n%s", err, out)
	}
	common := []string{"setup_s", "class1_p50_ms", "class2_p50_ms", "class3_p50_ms", "error_ratio", "rss_mb",
		"loadgen.late_p50_ms", "loadgen.late_p99_ms"}
	e2e := map[string][]string{
		"read_mix": append([]string{"read_p50_ms", "read_p99_ms", "query_p50_ms", "query_p99_ms",
			"capacity_rps", "read_closed_p50_ms"}, common...),
		"edit_mix": append([]string{"read_p50_ms", "read_p99_ms", "query_p50_ms", "query_p99_ms",
			"edit_p50_ms", "edit_p99_ms", "snapshot_s", "repl_visible_p50_ms", "repl_visible_p99_ms",
			"disk_mb"}, common...),
		"reason_core": append([]string{"reason_p50_ms", "reason_p99_ms"}, common...),
		"reason_mix":  append([]string{"reason_p50_ms", "reason_p99_ms"}, common...),
	}
	reasonLayers := []string{"reason.refine_ms", "reason.fastpath_ms", "reason.solve_ms",
		"reason.fastpath_share", "reason.closure_ms", "reason.witness_invalid"}
	traced := map[string][]string{
		"read_mix": {"serve.decode_ms", "serve.encode_ms", "serve.handler_ms", "config.view_wait_ms",
			"core.lookup_ms", "core.batch_ms", "core.prune_ratio", "index.select_ms", "index.candidates_per_match",
			"query.evaluator_ms", "query.plan_ms", "query.join_ms", "query.plan_cache_hit_ratio",
			"query.rows_per_binding", "loadgen.late_p99_ms", "trace.overhead_ratio"},
		"edit_mix": {"geom.parse_ms", "config.edit_ms", "core.delta_ms", "core.delta_pairs_per_edit",
			"index.update_ms", "persist.seed_ms", "persist.snapshot_ms", "persist.snapshot_mb",
			"wal.append_ms", "wal.fsync_ms", "wal.bytes_per_edit", "wal.fsyncs_per_edit",
			"replica.bootstrap_ms", "replica.apply_ms", "replica.lag_records_max", "config.view_wait_ms"},
		"reason_core": reasonLayers,
		"reason_mix":  append([]string{"reason.joint_ms"}, reasonLayers...),
	}
	for _, w := range []string{"read_mix", "edit_mix", "reason_core", "reason_mix"} {
		for trace, want := range map[string][]string{"0": e2e[w], "1": traced[w]} {
			t.Run(w+"/trace"+trace, func(t *testing.T) {
				// A traced run replays half the schedule per pass. At 30
				// edits/s a snapshot every 32 edits falls into each run.
				seconds := map[string]string{"0": "5", "1": "10"}[trace]
				out := t.TempDir()
				report, last := summary(t, "-bin", bin, "-out", out, "-n", "40", "-snap-edits", "32",
					"--workload", w, "--seed", "7", "--seconds", seconds, "--trace", trace)
				got := last["metrics"].(map[string]any)
				for _, name := range want {
					if _, ok := got[name]; !ok {
						t.Errorf("metric %s missing\n%s", name, report)
					}
				}
				if w != "reason_mix" && last["correct"] != true {
					t.Errorf("answers failed their checks\n%s", report)
				}
				if trace == "1" {
					for _, suffix := range []string{"-spans.jsonl", "-layers.txt"} {
						if _, err := os.Stat(filepath.Join(out, w+"-seed7"+suffix)); err != nil {
							t.Errorf("traced run wrote no %s: %v", suffix, err)
						}
					}
				}
			})
		}
	}
}

// TestLatencyCountsQueueing plays a schedule against a fake daemon that
// takes 20 ms per request. Ops due together on one lane queue, and that
// wait counts; an op released to an idle lane is timed from its release.
func TestLatencyCountsQueueing(t *testing.T) {
	const service = 20 * time.Millisecond
	ops := []op{{at: 0, kind: opRelation}, {at: 0, kind: opRelation}, {at: 0, kind: opRelation},
		{at: 200 * time.Millisecond, kind: opRelation}}
	exec := func(int) (int, []byte, error) {
		time.Sleep(service)
		return http.StatusOK, nil, nil
	}
	ph := runPhase(context.Background(), exec, ops, nil, nil)
	lat := func(i int) time.Duration { return ph.res[i].latency() }
	// Lanes alternate: ops 0 and 2 share lane 0, so op 2 waits for op 0.
	if lat(2) < 2*service {
		t.Errorf("queued op latency %v, want ≥ %v (its wait behind op 0 counts)", lat(2), 2*service)
	}
	for _, i := range []int{0, 3} {
		if lat(i) < service || lat(i) > service+15*time.Millisecond {
			t.Errorf("op %d latency %v, want one service time", i, lat(i))
		}
	}
	if r := ph.res[3]; r.begin < r.due {
		t.Errorf("op 3 timed from %v, before its due time %v", r.begin, r.due)
	}
}
