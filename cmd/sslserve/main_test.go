package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestServeSmoke boots the server on an ephemeral port, fits a model over
// HTTP, runs concurrent multi-point predicts, checks readiness, and then
// drains it the way SIGTERM would (context cancellation), asserting
// in-flight requests are not dropped.
func TestServeSmoke(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var logBuf bytes.Buffer
	addrc := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0"}, &logBuf, func(addr string) { addrc <- addr })
	}()
	var base string
	select {
	case addr := <-addrc:
		base = "http://" + addr
	case err := <-done:
		t.Fatalf("server exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}

	// Liveness and readiness.
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d", path, resp.StatusCode)
		}
	}

	// Fit a small model over HTTP.
	n := 60
	x := make([][]float64, n)
	y := make([]float64, 20)
	labeled := make([]int, 20)
	for i := range x {
		x[i] = []float64{float64(i%10) * 0.3, float64(i%7) * 0.4, float64(i%5) * 0.5}
	}
	for i := range labeled {
		labeled[i] = i * 3
		y[i] = float64(i % 2)
	}
	fitBody, _ := json.Marshal(map[string]any{"x": x, "y": y, "labeled": labeled, "bandwidth": 1.5})
	resp, err := http.Post(base+"/v1/models/smoke", "application/json", bytes.NewReader(fitBody))
	if err != nil {
		t.Fatal(err)
	}
	var fitOut bytes.Buffer
	_, _ = fitOut.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fit: %d %s", resp.StatusCode, fitOut.String())
	}

	// Multi-point predicts: several clients in flight at once.
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			pts := [][]float64{{0.1 * float64(c), 0.2, 0.3}, {0.5, 0.1 * float64(c), 0.2}}
			body, _ := json.Marshal(map[string]any{"model": "smoke", "points": pts})
			resp, err := http.Post(base+"/v1/predict", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("client %d: %v", c, err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: %d", c, resp.StatusCode)
				return
			}
			var out struct {
				Scores []float64 `json:"scores"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || len(out.Scores) != 2 {
				t.Errorf("client %d: %v %v", c, out.Scores, err)
			}
		}(c)
	}
	wg.Wait()

	// Metrics endpoint is live.
	resp, err = http.Get(base + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	var vars bytes.Buffer
	_, _ = vars.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(vars.String(), "graphssl.serve.requests_total") {
		t.Fatal("metrics missing from /debug/vars")
	}

	// Drain: cancel stands in for SIGTERM (NotifyContext wiring in main).
	// Requests in flight at cancel time must complete.
	inflight := make(chan error, 1)
	go func() {
		pts := [][]float64{{0.2, 0.2, 0.2}}
		body, _ := json.Marshal(map[string]any{"model": "smoke", "points": pts})
		resp, err := http.Post(base+"/v1/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			inflight <- err
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			inflight <- fmt.Errorf("in-flight predict: %d", resp.StatusCode)
			return
		}
		inflight <- nil
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("server never drained")
	}
	if err := <-inflight; err != nil {
		t.Fatalf("in-flight request dropped: %v", err)
	}
	log := logBuf.String()
	if !strings.Contains(log, "draining") || !strings.Contains(log, "drained") {
		t.Fatalf("drain log missing: %q", log)
	}
}

// TestRunBadFlags checks flag errors surface instead of booting.
func TestRunBadFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-nope"}, &buf, nil); err == nil {
		t.Fatal("bad flag accepted")
	}
	if err := run(context.Background(), []string{"-addr", "999.999.999.999:0"}, &buf, nil); err == nil {
		t.Fatal("bad address accepted")
	}
	// sslserve runs one server and has no -replicas flag. The context is
	// canceled up front, so a build that accepted the flag would drain at
	// once and return nil.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := run(ctx, []string{"-addr", "127.0.0.1:0", "-replicas", "3"}, &buf, nil); err == nil {
		t.Fatal("-replicas accepted")
	}
}
