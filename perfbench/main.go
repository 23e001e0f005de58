// Command perfbench is the cardirect benchmark of record: seeded open-loop
// /v1 traffic against real cardirectd processes (end-to-end metrics, tracing
// off), or an in-process traced replay of the same operations (per-layer
// metrics). See README.md for the workloads, metrics and findings.
//
// Usage (from the repository root; run.sh builds both binaries first):
//
//	perfbench -bin cardirectd --workload read_mix --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     bool
	n         int
	snapEdits int
	bin       string
	out       string
	runDir    string
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	o := &options{}
	var trace int
	fs.StringVar(&o.workload, "workload", "", "read_mix, edit_mix, reason_core or reason_mix")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the world and the operation schedule")
	fs.IntVar(&o.seconds, "seconds", 20, "length of the measured phase")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end run against daemons; 1: traced in-process replay")
	fs.IntVar(&o.n, "n", 0, "world size override (0 = the workload's size)")
	fs.IntVar(&o.snapEdits, "snap-edits", 0, "edits between snapshot rotations override (0 = the workload's policy)")
	fs.StringVar(&o.bin, "bin", "cardirectd", "cardirectd binary")
	fs.StringVar(&o.out, "out", ".bench_build/perfbench", "directory for result, span and table files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if o.seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need --seconds ≥ 1 and --trace 0 or 1")
	}
	if _, err := specFor(o); err != nil {
		return err
	}
	o.trace = trace == 1
	o.runDir = filepath.Join(o.out, fmt.Sprintf("run-%s-%d-%d", o.workload, o.seed, os.Getpid()))
	if err := os.MkdirAll(o.runDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(o.runDir)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var oc *outcome
	var err error
	if o.trace {
		oc, err = runTrace(ctx, o)
	} else {
		oc, err = runE2E(ctx, o)
	}
	if err != nil {
		return err
	}
	return report(stdout, o, oc)
}

// report prints every metric by name with unit and sample count, writes
// the full result file, and ends with the one-line JSON summary: the
// metrics BENCHMARK.json lists for this mode, when it is present.
func report(stdout io.Writer, o *options, oc *outcome) error {
	h := fingerprint()
	mode := "end_to_end"
	if o.trace {
		mode = "per_layer"
	}
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%d %s\n", o.workload, o.seed, o.seconds, mode)
	fmt.Fprintf(stdout, "host nproc=%d cpu=%q go=%s rev=%s\n", h.NProc, h.CPU, h.Go, h.Rev)
	for _, m := range oc.m.list {
		fmt.Fprintf(stdout, "  %-32s %14.6g %-9s n=%d\n", m.Name, m.Value, m.Unit, m.Samples)
	}
	for _, n := range oc.notes {
		fmt.Fprintf(stdout, "  note: %s\n", n)
	}
	fmt.Fprintf(stdout, "  attempted=%d failed=%d\n", oc.attempted, oc.failed)

	name := fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, map[bool]int{false: 0, true: 1}[o.trace])
	err := writeJSONFile(filepath.Join(o.out, name), map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "mode": mode, "host": h,
		"metrics": oc.m.list, "notes": oc.notes, "attempted": oc.attempted, "failed": oc.failed,
	})
	if err != nil {
		return err
	}

	listed, err := listedMetrics(mode)
	if err != nil {
		return err
	}
	out := map[string]any{}
	for _, m := range oc.m.list {
		if listed == nil || listed[m.Name] {
			out[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
		}
	}
	line, err := json.Marshal(map[string]any{"correct": oc.failed == 0, "attempted": oc.attempted,
		"failed": oc.failed, "metrics": out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// listedMetrics reads the metric names BENCHMARK.json lists under mode;
// nil (report everything) when the file is absent.
func listedMetrics(mode string) (map[string]bool, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, err
	}
	var list []struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal(spec[mode], &list); err != nil {
		return nil, err
	}
	names := map[string]bool{}
	for _, m := range list {
		names[m.Name] = true
	}
	return names, nil
}

// host identifies where a result was measured.
type host struct {
	NProc int    `json:"nproc"`
	CPU   string `json:"cpu"`
	Go    string `json:"go"`
	Rev   string `json:"rev"`
}

func fingerprint() host {
	h := host{NProc: runtime.NumCPU(), Go: runtime.Version(), CPU: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(v), ":"))
				break
			}
		}
	}
	if rev, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Rev = strings.TrimSpace(string(rev))
	} else {
		h.Rev = "tree-" + sourceHash()
	}
	return h
}

// sourceHash digests the Go sources and go.mod files under the working
// directory, for checkouts that are not git repositories.
func sourceHash() string {
	var files []string
	filepath.Walk(".", func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return nil
		}
		if info.IsDir() && strings.HasPrefix(info.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if strings.HasSuffix(path, ".go") || info.Name() == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	sum := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(sum, "%s %d\n", f, len(data))
		sum.Write(data)
	}
	return hex.EncodeToString(sum.Sum(nil))[:12]
}
