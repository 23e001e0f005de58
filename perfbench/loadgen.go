package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// target is one daemon's base URL with a client holding at most conns
// keep-alive connections to it.
type target struct {
	base   string
	client *http.Client
}

func newTarget(base string, conns int) *target {
	return &target{base: base, client: &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns,
			DisableCompression: true},
	}}
}

func (t *target) close() { t.client.CloseIdleConnections() }

// do sends one request and reads the whole response.
func (t *target) do(ctx context.Context, method, path string, body []byte, hdr map[string]string) (int, []byte, http.Header, error) {
	req, err := http.NewRequestWithContext(ctx, method, t.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, resp.Header, err
}

// generation reads the node's store generation from a relation ETag.
func (t *target) generation(ctx context.Context, a, b string) (uint64, error) {
	status, _, h, err := t.do(ctx, "GET", "/v1/relation?primary="+a+"&reference="+b, nil, nil)
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("generation probe: status %d", status)
	}
	return strconv.ParseUint(strings.Trim(h.Get("ETag"), `"g`), 10, 64)
}

// result is the outcome of one scheduled op; times are offsets from the
// phase start. begin is when an on-time generator would have sent the op:
// its due time, or, when its lane was still busy then, the moment the lane
// freed. latency (end − begin) therefore counts every wait behind earlier
// requests, but not the generator's own lateness in releasing the op (a
// Go timer shorter than 1 ms fires up to 1 ms late on an idle process).
type result struct {
	due, begin, end time.Duration
	status          int
	err             error
	body            []byte // kept only for ops the caller checks
}

// latency is the service time plus the queueing behind the op's lane
// past its due time.
func (r *result) latency() time.Duration { return r.end - r.begin }

// expectStatus is the success status of each kind.
func expectStatus(k kind) int {
	switch k {
	case opAdd:
		return http.StatusCreated
	case opDelete:
		return http.StatusNoContent
	}
	return http.StatusOK
}

func (r *result) ok(k kind) bool { return r.err == nil && r.status == expectStatus(k) }

// phase is one open-loop run over a schedule.
type phase struct {
	res     []result
	late    sample // how late the dispatcher released each op
	backlog []int  // ops waiting for a connection at each release
}

// ackFunc is told of each successful edit, in edit order, with the number
// of edits acknowledged so far.
type ackFunc func(acked int, at time.Time)

// execFunc performs op i and returns its status and body.
type execFunc func(i int) (int, []byte, error)

// httpExec sends each op to t.
func httpExec(ctx context.Context, t *target, ops []op) execFunc {
	return func(i int) (int, []byte, error) {
		o := &ops[i]
		status, body, _, err := t.do(ctx, o.method, o.path, o.body, nil)
		return status, body, err
	}
}

// lanes assigns each op one of conns connections, each drained in FIFO
// order by its own worker. When a schedule mixes light requests (reads,
// checks, compositions) with heavier ones, light ones get lane 0 and the
// rest lane 1, so a read never queues in the client behind a query, an
// edit or a snapshot, nor a check behind an entailment — only in the
// daemon. Otherwise ops alternate. Edits share one lane, so they run one
// at a time in schedule order: the generation after the k-th acknowledged
// edit is the start generation plus k.
func lanes(ops []op) []int {
	light, heavy := false, false
	for i := range ops {
		if ops[i].kind.light() {
			light = true
		} else {
			heavy = true
		}
	}
	lane := make([]int, len(ops))
	for i := range ops {
		switch {
		case light && heavy:
			if !ops[i].kind.light() {
				lane[i] = 1
			}
		default:
			lane[i] = i % conns
		}
	}
	return lane
}

// runPhase plays ops open loop: a dispatcher releases each op at its
// intended time into its lane's FIFO, whatever the daemon's speed; keep
// selects the ops whose bodies are retained.
func runPhase(ctx context.Context, exec execFunc, ops []op, keep func(i int) bool, onAck ackFunc) *phase {
	ph := &phase{res: make([]result, len(ops)), late: make(sample, len(ops)), backlog: make([]int, len(ops))}
	lane := lanes(ops)
	var queues [conns]chan int
	for l := range queues {
		// Sized to the number of sends: the dispatcher never blocks, so a
		// stalled daemon shows as queueing delay instead of a slower
		// schedule.
		queues[l] = make(chan int, len(ops))
	}
	start := time.Now()
	var wg sync.WaitGroup
	for l := range queues {
		wg.Add(1)
		go func(q chan int) {
			defer wg.Done()
			acked := 0
			var free time.Duration // when the lane's previous request ended
			for i := range q {
				o, r := &ops[i], &ph.res[i]
				r.due = o.at
				// Service time runs from now; the lane's queueing counts
				// from the due time until the lane freed.
				sent := time.Since(start)
				r.begin = sent - max(0, free-r.due)
				var body []byte
				r.status, body, r.err = exec(i)
				r.end = time.Since(start)
				free = r.end
				if keep != nil && keep(i) {
					r.body = body
				}
				if o.edit >= 0 && r.ok(o.kind) && onAck != nil {
					acked++
					onAck(acked, time.Now())
				}
			}
		}(queues[l])
	}
	timer := time.NewTimer(0)
	<-timer.C
	for i := range ops {
		due := start.Add(ops[i].at)
		if d := time.Until(due); d > 0 {
			timer.Reset(d)
			select {
			case <-timer.C:
			case <-ctx.Done():
			}
		}
		ph.late[i] = time.Since(due)
		q := queues[lane[i]]
		ph.backlog[i] = len(q)
		q <- i
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	return ph
}

// backlogGrowing reports whether the queue of released-but-unsent ops
// kept growing: its median over the last quarter of the run exceeds that
// of the first quarter by more than a few ops. Medians ignore the
// transient queue a snapshot stall builds and drains.
func (ph *phase) backlogGrowing() bool {
	n := len(ph.backlog)
	if n < 8 {
		return false
	}
	med := func(xs []int) float64 {
		f := make([]float64, len(xs))
		for i, x := range xs {
			f[i] = float64(x)
		}
		return median(f)
	}
	return med(ph.backlog[3*n/4:]) > med(ph.backlog[:n/4])+4
}

// collect sorts latencies by class and window and counts failures.
func (ph *phase) collect(ops []op, lat map[string]series, window time.Duration) (attempted, failed int) {
	for i := range ops {
		r := &ph.res[i]
		attempted++
		if !r.ok(ops[i].kind) {
			failed++
			continue
		}
		s := lat[ops[i].kind.class()]
		s.add(int(r.due/window), r.latency())
		lat[ops[i].kind.class()] = s
	}
	return attempted, failed
}
