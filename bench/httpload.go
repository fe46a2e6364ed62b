package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/serve"
)

// server is one serve.Server with the sslserve defaults (serve.Config{}),
// listening on loopback.
type server struct {
	srv  *serve.Server
	hs   *http.Server
	base string
	done chan struct{}
}

func startServer() (*server, error) {
	srv := serve.NewServer(serve.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{srv: srv, hs: &http.Server{Handler: srv.Handler()}, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return s, nil
}

// close drains the server the way sslserve does and waits for it to stop.
func (s *server) close() {
	s.srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		_ = s.hs.Close()
	}
	<-s.done
	s.srv.Close()
}

// repeatSetUp runs a serving workload's set-up n times (once when traced),
// each from a collected heap in its own peak-memory window, and tears down
// all but the last. setUp returns the teardown of what it started, also
// when it fails. It returns the set-up times in seconds at nominal host
// speed, their memory peaks in MB, and the surviving teardown.
func repeatSetUp(r *run, n int, setUp func() (func(), error)) (secs, peaks []float64, teardown func(), err error) {
	if r.traced() {
		n = 1
	}
	teardown = func() {}
	for i := 0; i < n; i++ {
		teardown()
		if err := resetPeakRSS(); err != nil {
			return nil, nil, func() {}, err
		}
		t0 := time.Now()
		td, err := setUp()
		d := time.Since(t0)
		teardown = td
		if err != nil {
			teardown()
			return nil, nil, func() {}, err
		}
		rss, err := peakRSSMB()
		if err != nil {
			teardown()
			return nil, nil, func() {}, err
		}
		peaks = append(peaks, rss)
		secs = append(secs, d.Seconds()*r.host.next())
	}
	return secs, peaks, teardown, nil
}

// phaseSlices splits a load phase of dur into slices of about target each,
// the stretches of load between two host probes.
func phaseSlices(dur, target time.Duration) (int, time.Duration) {
	n := max(1, int(math.Round(float64(dur)/float64(target))))
	return n, dur / time.Duration(n)
}

// client is an HTTP client limited to conns connections to one server.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string, conns int) *client {
	return &client{base: base, hc: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole response. A non-2xx status is
// an error.
func (c *client) do(method, path string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return b, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

// debugVars reads the server's expvar counters from /debug/vars.
func (c *client) debugVars() (map[string]float64, error) {
	b, err := c.do(http.MethodGet, "/debug/vars", nil)
	if err != nil {
		return nil, err
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(b, &raw); err != nil {
		return nil, fmt.Errorf("decode /debug/vars: %w", err)
	}
	out := map[string]float64{}
	for k, v := range raw {
		var f float64
		if json.Unmarshal(v, &f) == nil {
			out[k] = f
		}
	}
	return out, nil
}

// predictResponse mirrors the body of a /v1/predict answer.
type predictResponse struct {
	Version int64     `json:"version"`
	Scores  []float64 `json:"scores"`
	Errors  []string  `json:"errors"`
}

// modelEntry mirrors the body of GET /v1/models/{name}.
type modelEntry struct {
	Version int64 `json:"version"`
	Info    struct {
		Anchors int `json:"anchors"`
	} `json:"info"`
}

// appendPredictBody encodes {"model":name,"points":pts} into buf.
func appendPredictBody(buf []byte, name string, pts [][]float64) []byte {
	buf = append(buf, `{"model":"`...)
	buf = append(buf, name...)
	buf = append(buf, `","points":`...)
	return append(appendMatrix(buf, pts), '}')
}

func appendMatrix(buf []byte, pts [][]float64) []byte {
	buf = append(buf, '[')
	for i, p := range pts {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendVector(buf, p)
	}
	return append(buf, ']')
}

func appendVector(buf []byte, v []float64) []byte {
	buf = append(buf, '[')
	for j, f := range v {
		if j > 0 {
			buf = append(buf, ',')
		}
		buf = appendFloat(buf, f)
	}
	return append(buf, ']')
}

// sleepUntil blocks until t in nanosleep(2). The runtime's timers wake an
// otherwise idle process up to a millisecond late, which an open loop
// would charge to the system under test; nanosleep is accurate to tens of
// microseconds.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // interrupted: sleep the rest
	}
}

// loopStats is what a load loop measured.
type loopStats struct {
	done    int             // requests completed (successfully or not)
	elapsed time.Duration   // wall time of the loop
	latency []time.Duration // per request; open loop: from due time
	late    []time.Duration // open loop: how late each request was sent
}

// closedLoop runs conns workers that each send their next request as soon
// as the previous one returns, until dur has passed (dur > 0) or each has
// sent perConn requests (perConn > 0). send(worker, seq) sends the worker's
// seq-th request.
func closedLoop(dur time.Duration, perConn, conns int, send func(worker, seq int)) loopStats {
	start := time.Now()
	deadline := start.Add(dur)
	more := func(seq int) bool {
		return (dur <= 0 || time.Now().Before(deadline)) && (perConn <= 0 || seq < perConn)
	}
	lat := make([][]time.Duration, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for seq := 0; more(seq); seq++ {
				t0 := time.Now()
				send(w, seq)
				lat[w] = append(lat[w], time.Since(t0))
			}
		}(w)
	}
	wg.Wait()
	st := loopStats{elapsed: time.Since(start)}
	for w := range lat {
		st.latency = append(st.latency, lat[w]...)
	}
	st.done = len(st.latency)
	return st
}

// openLoop sends requests on a fixed schedule regardless of how fast they
// complete: request i is due at start + i/rate. conns workers share the
// schedule, so a stalled request delays later ones only once both
// connections are busy. Latency counts from the due time, which charges a
// stall to every request it delayed; late records how far behind schedule
// each request was sent. prepare(i) builds request i before it is due;
// send(worker, i, prepared) sends it.
func openLoop(dur time.Duration, rate float64, conns int, prepare func(i int) any, send func(worker, i int, prepared any)) loopStats {
	total := int(dur.Seconds() * rate)
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(5 * time.Millisecond)
	var next atomic.Int64
	lat := make([][]time.Duration, conns)
	late := make([][]time.Duration, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= total {
					return
				}
				p := prepare(i)
				due := start.Add(time.Duration(i) * interval)
				sleepUntil(due)
				late[w] = append(late[w], time.Since(due))
				send(w, i, p)
				lat[w] = append(lat[w], time.Since(due))
			}
		}(w)
	}
	wg.Wait()
	st := loopStats{elapsed: time.Since(start), done: total}
	for w := range lat {
		st.latency = append(st.latency, lat[w]...)
		st.late = append(st.late, late[w]...)
	}
	return st
}
