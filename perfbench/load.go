package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"knncost/internal/service"
)

// maxConns is the load generator's connection budget: one per core of the
// reference machine, shared by every client of a run.
const maxConns = 2

func newHTTPClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     maxConns,
			MaxIdleConnsPerHost: maxConns,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
}

// result is one sent request with its timing and decoded answer.
type result struct {
	req    request
	stream int // client stream that sent it
	seq    int // position in that stream
	// due is when an open-loop request was scheduled; for closed-loop
	// requests it equals start.
	due, start, end time.Time
	err             error

	blocks float64 // select, join
	batch  *service.BatchSelectResponse
	plan   *service.PlanResponse
	info   service.RelationInfo // append ack
}

// latency is the request's time from when it was due until its response
// was read.
func (r *result) latency() time.Duration { return r.end.Sub(r.due) }

// client sends generated requests to one base URL.
type client struct {
	hc   *http.Client
	base string
}

// send issues req and times it from the moment the request is on its way
// until the whole response body is read; encoding and decoding fall
// outside the timed interval. Non-2xx statuses are errors.
func (c *client) send(ctx context.Context, req request) result {
	method, path, body, err := encode(req)
	res := result{req: req}
	if err != nil {
		res.err = err
		return res
	}
	hreq, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		res.err = err
		return res
	}
	if body != nil {
		hreq.Header.Set("Content-Type", "application/json")
	}
	res.start = time.Now()
	res.due = res.start
	resp, err := c.hc.Do(hreq)
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	res.end = time.Now()
	if err != nil {
		res.err = err
		return res
	}
	if resp.StatusCode/100 != 2 {
		res.err = fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
		return res
	}
	res.err = decode(&res, data)
	return res
}

// encode returns the HTTP method, path with query, and body of req.
func encode(req request) (string, string, []byte, error) {
	switch req.kind {
	case opSelect:
		q := url.Values{"rel": {req.rel}, "x": {floatText(req.x)}, "y": {floatText(req.y)},
			"k": {strconv.Itoa(req.k)}, "technique": {req.technique}}
		return http.MethodGet, "/estimate/select?" + q.Encode(), nil, nil
	case opJoin:
		q := url.Values{"outer": {req.outer}, "inner": {req.inner},
			"k": {strconv.Itoa(req.k)}, "technique": {req.technique}}
		return http.MethodGet, "/estimate/join?" + q.Encode(), nil, nil
	case opBatch:
		b, err := json.Marshal(req.batch)
		return http.MethodPost, "/estimate/select/batch", b, err
	case opPlan:
		b, err := json.Marshal(req.plan)
		return http.MethodPost, "/plan", b, err
	case opAppend:
		b, err := json.Marshal(service.MutateRequest{Points: req.points})
		return http.MethodPost, "/relations/" + url.PathEscape(req.rel) + "/points", b, err
	}
	return "", "", nil, fmt.Errorf("unknown request kind %d", req.kind)
}

func decode(res *result, data []byte) error {
	switch res.req.kind {
	case opSelect, opJoin:
		var er service.EstimateResponse
		if err := json.Unmarshal(data, &er); err != nil {
			return err
		}
		res.blocks = er.Blocks
	case opBatch:
		res.batch = &service.BatchSelectResponse{}
		return json.Unmarshal(data, res.batch)
	case opPlan:
		res.plan = &service.PlanResponse{}
		return json.Unmarshal(data, res.plan)
	case opAppend:
		return json.Unmarshal(data, &res.info)
	}
	return nil
}

// window is the timed interval of a run.
type window struct{ start, end time.Time }

func (w window) seconds() float64 { return w.end.Sub(w.start).Seconds() }

// runClosed drives streams closed-loop clients: each sends its next request
// only after the previous answer arrived. Requests sent before win.start
// warm the daemon up; they are returned apart from the timed ones, which
// follow per stream, in send order, until win.end.
func runClosed(ctx context.Context, c *client, streams []int, seed int64, rels []relation,
	mix func(*gen) request, win window) (warm, timed [][]result) {
	warm = make([][]result, len(streams))
	timed = make([][]result, len(streams))
	var wg sync.WaitGroup
	for i, stream := range streams {
		wg.Add(1)
		go func(i, stream int) {
			defer wg.Done()
			wgen := newGen(seed^int64(stream+1)*0x5bd1e995, rels)
			for seq := 0; time.Now().Before(win.start) && ctx.Err() == nil; seq++ {
				res := c.send(ctx, mix(wgen))
				res.stream, res.seq = stream, seq
				warm[i] = append(warm[i], res)
			}
			g := newGen(seed+int64(stream), rels)
			for seq := 0; time.Now().Before(win.end) && ctx.Err() == nil; seq++ {
				res := c.send(ctx, mix(g))
				res.stream, res.seq = stream, seq
				timed[i] = append(timed[i], res)
			}
		}(i, stream)
	}
	wg.Wait()
	return warm, timed
}

// appender posts appendSize-point batches to one relation. Open-loop (rate
// > 0), each append is due at start + i/rate and timed from then, so a
// stall also delays — and is charged to — the appends queued behind it;
// closed-loop (rate 0), appends go back to back. Between appends it polls
// the relation's status to time when each acknowledged append becomes
// visible in the published snapshot.
type appender struct {
	c      *client
	rel    *relation
	stream int
	seed   int64

	results []result
	// acked indexes the successful results in order; visibleMs[i] is the
	// ack-to-visible time of results[acked[i]].
	acked     []int
	visibleMs []float64
	folded    int       // acked appends known to be folded into the published snapshot
	polled    time.Time // when the status was last read
}

// pollEvery spaces the status reads that time visibility. Visibility takes
// hundreds of milliseconds, so reading more often adds load — status reads
// at a kilohertz would outnumber the workload's own requests — without
// adding precision that matters.
const pollEvery = 10 * time.Millisecond

// pollOnce reads the relation's status and marks every acknowledged append
// whose position lies at or below the folded count as visible. The WAL
// folds a prefix of the pending mutations in log order, and this appender
// is the relation's only writer, so acked − delta_ops appends are folded.
func (a *appender) pollOnce(ctx context.Context) error {
	acked := len(a.acked)
	var info service.RelationInfo
	if err := getJSON(ctx, a.c.hc, a.c.base+"/relations/"+url.PathEscape(a.rel.name)+"/status", &info); err != nil {
		return err
	}
	now := time.Now()
	a.polled = now
	folded := acked - info.DeltaOps
	for ; a.folded < folded; a.folded++ {
		a.visibleMs = append(a.visibleMs, float64(now.Sub(a.results[a.acked[a.folded]].end))/1e6)
	}
	return nil
}

func (a *appender) pending() bool { return a.folded < len(a.acked) }

// run appends until end. rate is appends per second (0: closed loop); limit
// caps the count (0: none).
func (a *appender) run(ctx context.Context, start, end time.Time, rate float64, limit int) error {
	g := newGen(a.seed+int64(a.stream), []relation{*a.rel})
	for i := 0; limit == 0 || i < limit; i++ {
		due := time.Now()
		if rate > 0 {
			due = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
			if !due.Before(end) {
				break
			}
			for wait := time.Until(due); wait > 0; wait = time.Until(due) {
				if a.pending() && time.Since(a.polled) >= pollEvery {
					if err := a.pollOnce(ctx); err != nil {
						return err
					}
					continue
				}
				time.Sleep(min(wait, time.Millisecond))
			}
		} else if !due.Before(end) {
			break
		}
		res := a.c.send(ctx, g.appendReq(a.rel))
		res.stream, res.seq, res.due = a.stream, i, due
		if res.err == nil {
			a.acked = append(a.acked, len(a.results))
		}
		a.results = append(a.results, res)
		if rate == 0 {
			if err := a.pollOnce(ctx); err != nil {
				return err
			}
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}
	return nil
}

// settle polls until every acknowledged append is visible or the timeout
// passes.
func (a *appender) settle(ctx context.Context, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for a.pending() {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d of %d appends to %s not visible after %v",
				len(a.acked)-a.folded, len(a.acked), a.rel.name, timeout)
		}
		if err := a.pollOnce(ctx); err != nil {
			return err
		}
		time.Sleep(pollEvery)
	}
	return nil
}
