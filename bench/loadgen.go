package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// loadWorkers is the load generator's width: two goroutines with one
// connection each, because the sandbox has two cores and the server
// needs one of them.
const loadWorkers = 2

// streamCursor hands out consecutive slices of the update stream to
// concurrent senders.
type streamCursor struct {
	stream []update
	next   atomic.Int64
}

// take returns the next n updates, or nil when fewer than n are left.
func (c *streamCursor) take(n int) []update {
	for {
		start := c.next.Load()
		end := start + int64(n)
		if end > int64(len(c.stream)) {
			return nil
		}
		if c.next.CompareAndSwap(start, end) {
			return c.stream[start:end]
		}
	}
}

// taken is how many updates were handed out so far.
func (c *streamCursor) taken() int { return int(c.next.Load()) }

// target is what a request is sent against: the server, the node range
// and degeneracy used to reduce raw arguments, and the update stream.
type target struct {
	url    string
	n      uint32
	kmax   uint32
	batch  int // edge updates per update request
	cursor *streamCursor
	tr     *tracer // nil when untraced
}

// sample is the outcome of one request.
type sample struct {
	kind    opKind
	latency time.Duration // from the due time in an open loop, else from the send
	late    time.Duration // open loop only: send time minus due time
	updates int           // edge updates acked
	failed  bool
}

// conn is one worker's connection: its own transport capped at a
// single connection to the server, and a reusable body buffer.
type conn struct {
	hc  *http.Client
	buf bytes.Buffer
}

func newConn() *conn {
	return &conn{hc: &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// updateBody is the JSON body of POST /update.
type updateBody struct {
	Updates []update `json:"updates"`
}

// send issues one request and reads the whole response. due is when
// the request was scheduled (equal to the send time in a closed loop);
// with a tracer on the target the request leaves the span tree
// request -> schedule_wait, http_roundtrip -> write_request, ttfb,
// read_body.
func (c *conn) send(t *target, kind opKind, arg uint32, due time.Time) sample {
	s := sample{kind: kind}
	var req *http.Request
	var err error
	switch kind {
	case opCore:
		req, err = http.NewRequest(http.MethodGet, t.url+"/core?v="+strconv.FormatUint(uint64(arg%t.n), 10), nil)
	case opKCore:
		k := 1 + arg%max(t.kmax, 1)
		req, err = http.NewRequest(http.MethodGet, t.url+"/kcore?limit=100&k="+strconv.FormatUint(uint64(k), 10), nil)
	case opDegeneracy:
		req, err = http.NewRequest(http.MethodGet, t.url+"/degeneracy", nil)
	case opUpdate:
		ups := t.cursor.take(t.batch)
		if ups == nil {
			s.failed = true // stream exhausted: the run was sized wrong
			return s
		}
		s.updates = len(ups)
		c.buf.Reset()
		if err = json.NewEncoder(&c.buf).Encode(updateBody{Updates: ups}); err == nil {
			req, err = http.NewRequest(http.MethodPost, t.url+"/update?wait=1", bytes.NewReader(c.buf.Bytes()))
		}
	}
	if err != nil {
		s.failed = true
		return s
	}

	var wrote, firstByte time.Time
	if t.tr != nil {
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			WroteRequest:         func(httptrace.WroteRequestInfo) { wrote = time.Now() },
			GotFirstResponseByte: func() { firstByte = time.Now() },
		}))
	}
	sent := time.Now()
	resp, err := c.hc.Do(req)
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %s", resp.Status)
		}
	}
	done := time.Now()
	s.late = sent.Sub(due)
	s.latency = done.Sub(due)
	if err != nil {
		s.failed = true
		s.updates = 0
	}
	if t.tr != nil {
		id := t.tr.newReq()
		root := t.tr.add(0, id, "request", due, done)
		t.tr.add(root, id, "schedule_wait", due, sent)
		rt := t.tr.add(root, id, "http_roundtrip", sent, done)
		if !wrote.IsZero() && !firstByte.IsZero() {
			t.tr.add(rt, id, "write_request", sent, wrote)
			t.tr.add(rt, id, "ttfb", wrote, firstByte)
			t.tr.add(rt, id, "read_body", firstByte, done)
		}
	}
	return s
}

// event is one completed request.
type event struct {
	latency time.Duration
	weight  int // what it adds to the throughput: 1 read, or the edge updates acked
}

// phase is the outcome of one measured phase.
type phase struct {
	wall      time.Duration
	reads     []event
	updates   []event   // one per update request
	late      []float64 // open loop only: how late each send was, ms
	attempted int
	failed    int
}

func (p *phase) record(s sample) {
	p.attempted++
	if s.failed {
		p.failed++
		return
	}
	e := event{latency: s.latency, weight: 1}
	if s.kind.isRead() {
		p.reads = append(p.reads, e)
	} else {
		e.weight = s.updates
		p.updates = append(p.updates, e)
	}
}

func (p *phase) merge(q *phase) {
	p.reads = append(p.reads, q.reads...)
	p.updates = append(p.updates, q.updates...)
	p.late = append(p.late, q.late...)
	p.attempted += q.attempted
	p.failed += q.failed
}

// weight sums what events add to the throughput.
func weight(events []event) int {
	n := 0
	for _, e := range events {
		n += e.weight
	}
	return n
}

// rate is the events' weight per second of the whole phase.
func (p *phase) rate(events []event) float64 {
	return ratio(float64(weight(events)), p.wall.Seconds())
}

// msOf returns the latencies of events in milliseconds.
func msOf(events []event) []float64 {
	out := make([]float64, len(events))
	for i, e := range events {
		out[i] = toMs(e.latency)
	}
	return out
}

// runWorkers runs work once per load worker, each with its own
// connection and its own part of the phase, and merges the parts.
func runWorkers(work func(w int, c *conn, part *phase, start time.Time)) *phase {
	parts := make([]phase, loadWorkers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newConn()
			defer c.close()
			work(w, c, &parts[w], start)
		}()
	}
	wg.Wait()
	out := &phase{wall: time.Since(start)}
	for i := range parts {
		out.merge(&parts[i])
	}
	return out
}

// closedLoop runs the load workers for dur; each sends its next request
// as soon as the previous one completed. Requests are drawn from
// per-worker sources seeded from seed.
func closedLoop(t *target, m mix, seed int64, dur time.Duration) *phase {
	return runWorkers(func(w int, c *conn, part *phase, start time.Time) {
		src := newOpSource(seed+int64(w), m)
		for deadline := start.Add(dur); time.Now().Before(deadline); {
			kind, arg := src.next()
			part.record(c.send(t, kind, arg, time.Now()))
		}
	})
}

// openLoop sends the schedule's requests at their due times, whatever
// the server does: a worker that is free takes the next arrival, sleeps
// until it is due and sends it. Latency is timed from the due time, so
// a stall charges every request that had to wait behind it
// (coordinated-omission corrected); late records how far behind the
// schedule each send was.
func openLoop(t *target, schedule []arrival) *phase {
	var next atomic.Int64
	return runWorkers(func(_ int, c *conn, part *phase, start time.Time) {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(schedule) {
				return
			}
			a := schedule[i]
			due := start.Add(a.due)
			sleepUntil(due)
			s := c.send(t, a.kind, a.arg, due)
			part.record(s)
			if !s.failed {
				part.late = append(part.late, toMs(s.late))
			}
		}
	})
}

// sleepUntil blocks until t. It sleeps in the nanosleep system call
// and not in time.Sleep, whose wake-ups the Go runtime rounds up to a
// millisecond when the process is otherwise idle: at thousands of
// requests per second that would make every send late.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) //nolint:errcheck // EINTR: the loop sleeps the rest
	}
}

// getJSON fetches url and decodes the JSON body into v.
func getJSON(url string, v any) error {
	body, err := getBody(url)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	return nil
}

func getBody(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

// fetchStats reads and flattens /stats.
func fetchStats(url string) (flatStats, error) {
	body, err := getBody(url + "/stats")
	if err != nil {
		return nil, err
	}
	return parseStats(body)
}
