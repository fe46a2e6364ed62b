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

// TestFleetSmoke boots a 3-replica fleet on an ephemeral port, fits once
// through the leader, predicts through the router, inspects the topology
// endpoint, and drains.
func TestFleetSmoke(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var logBuf bytes.Buffer
	addrc := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-replicas", "3"}, &logBuf, func(addr string) { addrc <- addr })
	}()
	var base string
	select {
	case addr := <-addrc:
		base = "http://" + addr
	case err := <-done:
		t.Fatalf("fleet exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("fleet never became ready")
	}

	n := 50
	x := make([][]float64, n)
	y := make([]float64, 16)
	labeled := make([]int, 16)
	for i := range x {
		x[i] = []float64{float64(i%8) * 0.4, float64(i%5) * 0.3}
	}
	for i := range labeled {
		labeled[i] = i * 3
		y[i] = float64(i % 2)
	}
	fitBody, _ := json.Marshal(map[string]any{"x": x, "y": y, "labeled": labeled, "bandwidth": 1.2})
	resp, err := http.Post(base+"/v1/models/fleet-smoke", "application/json", bytes.NewReader(fitBody))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fleet fit: %d", resp.StatusCode)
	}

	// The same predict body twice: scores must be identical (replicated
	// model, deterministic routing).
	predBody, _ := json.Marshal(map[string]any{"model": "fleet-smoke", "points": [][]float64{{0.3, 0.2}, {1.1, 0.7}}})
	var runs [2][]float64
	for k := 0; k < 2; k++ {
		resp, err := http.Post(base+"/v1/predict", "application/json", bytes.NewReader(predBody))
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Scores []float64 `json:"scores"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || len(out.Scores) != 2 {
			t.Fatalf("fleet predict %d: %d %v", k, resp.StatusCode, out.Scores)
		}
		runs[k] = out.Scores
	}
	if runs[0][0] != runs[1][0] || runs[0][1] != runs[1][1] {
		t.Fatalf("repeat predict differs: %v vs %v", runs[0], runs[1])
	}

	resp, err = http.Get(base + "/v1/fleet")
	if err != nil {
		t.Fatal(err)
	}
	var topo struct {
		Replicas []struct {
			Models int  `json:"models"`
			Leader bool `json:"leader"`
		} `json:"replicas"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&topo); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(topo.Replicas) != 3 {
		t.Fatalf("topology: %+v", topo)
	}
	for i, r := range topo.Replicas {
		if r.Models != 1 {
			t.Fatalf("replica %d serves %d models, want 1", i, r.Models)
		}
		if r.Leader != (i == 0) {
			t.Fatalf("leader flag wrong at %d", i)
		}
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("fleet drain: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("fleet never drained")
	}
	if log := logBuf.String(); !strings.Contains(log, "3 replica(s)") {
		t.Fatalf("fleet log missing replica count: %q", log)
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
}
