package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// testFleet boots an n-replica fleet over httptest.
func testFleet(t *testing.T, n int, cfg Config) (*Fleet, *httptest.Server) {
	t.Helper()
	f, err := NewFleet(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(f.Handler())
	t.Cleanup(func() {
		ts.Close()
		f.Close()
	})
	return f, ts
}

func TestRingDeterministicAndCovering(t *testing.T) {
	if _, err := NewRing(0, 0); err == nil {
		t.Fatal("zero replicas must error")
	}
	ring, err := NewRing(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ring.Replicas() != 3 {
		t.Fatalf("replicas = %d", ring.Replicas())
	}
	// Deterministic: a rebuilt ring routes every key identically.
	ring2, err := NewRing(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	hits := make([]int, 3)
	for i := 0; i < 1000; i++ {
		key := []byte(fmt.Sprintf("request-body-%d", i))
		r1, r2 := ring.Lookup(key), ring2.Lookup(key)
		if r1 != r2 {
			t.Fatalf("key %d routes to %d and %d on identical rings", i, r1, r2)
		}
		if rs := ring.LookupString(fmt.Sprintf("request-body-%d", i)); rs != r1 {
			t.Fatalf("key %d: LookupString %d != Lookup %d", i, rs, r1)
		}
		if r1 < 0 || r1 >= 3 {
			t.Fatalf("route %d out of range", r1)
		}
		hits[r1]++
	}
	// Coverage and rough balance: every replica owns a real share.
	for i, h := range hits {
		if h < 100 {
			t.Fatalf("replica %d owns only %d/1000 keys: %v", i, h, hits)
		}
	}
}

// TestFleetFitReplicatesOnce proves the leader-fit-once contract: one HTTP
// fit populates every replica's registry with the SAME immutable model at
// the same version.
func TestFleetFitReplicatesOnce(t *testing.T) {
	f, ts := testFleet(t, 3, Config{Workers: 1})
	x, y, labeled := testData(71, 60, 3, 20)
	fr := fitOverHTTP(t, ts.URL, "rep", x, y, labeled, 0.8)
	if fr.Version != 1 {
		t.Fatalf("version = %d", fr.Version)
	}
	lead, err := f.Replica(0).Registry().Load("rep")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < f.Len(); i++ {
		e, err := f.Replica(i).Registry().Load("rep")
		if err != nil {
			t.Fatalf("replica %d missing the model: %v", i, err)
		}
		if e.Model != lead.Model {
			t.Fatalf("replica %d holds a different model instance", i)
		}
		if e.Version != lead.Version {
			t.Fatalf("replica %d at version %d, leader at %d", i, e.Version, lead.Version)
		}
	}
	// Refit bumps every replica in lockstep.
	if fr2 := fitOverHTTP(t, ts.URL, "rep", x, y, labeled, 0.8); fr2.Version != 2 {
		t.Fatalf("refit version = %d", fr2.Version)
	}
	for i := 0; i < f.Len(); i++ {
		if e, _ := f.Replica(i).Registry().Load("rep"); e == nil || e.Version != 2 {
			t.Fatalf("replica %d not at version 2", i)
		}
	}

	// Concurrent publications of distinct names leave every replica
	// holding the leader's model at the leader's version: fan-outs are
	// serialized, so each replica's version counter sees the same Store
	// sequence.
	m := smallModel(t)
	names := []string{"c0", "c1", "c2", "c3", "c4", "c5", "c6", "c7"}
	var wg sync.WaitGroup
	for _, name := range names {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				if _, err := f.publish(name, m); err != nil {
					t.Error(err)
					return
				}
			}
		}(name)
	}
	wg.Wait()
	for _, name := range names {
		lead, err := f.Replica(0).Registry().Load(name)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < f.Len(); i++ {
			if e, _ := f.Replica(i).Registry().Load(name); e == nil || e.Version != lead.Version {
				t.Fatalf("%s: replica %d diverged from the leader at version %d", name, i, lead.Version)
			}
		}
	}
}

func TestFleetPredictRoutesAndAgrees(t *testing.T) {
	f, ts := testFleet(t, 3, Config{Workers: 1})
	x, y, labeled := testData(73, 80, 3, 30)
	fitOverHTTP(t, ts.URL, "m", x, y, labeled, 0.9)

	srv, single := testServer(t, Config{Workers: 1})
	_ = srv
	fitOverHTTP(t, single.URL, "m", x, y, labeled, 0.9)

	q := [][]float64{{0.1, -0.2, 0.3}, {-1, 0.5, 0}, {2, 0, -1}}
	var fleetResp, singleResp predictResponse
	resp, body := postJSON(t, ts.URL+"/v1/predict", predictRequest{Model: "m", Points: q})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fleet predict: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &fleetResp); err != nil {
		t.Fatal(err)
	}
	resp, body = postJSON(t, single.URL+"/v1/predict", predictRequest{Model: "m", Points: q})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single predict: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &singleResp); err != nil {
		t.Fatal(err)
	}
	if len(fleetResp.Scores) != len(q) {
		t.Fatalf("fleet scores: %d", len(fleetResp.Scores))
	}
	for i := range q {
		if fleetResp.Scores[i] != singleResp.Scores[i] {
			t.Fatalf("fleet and single server disagree at %d: %v vs %v", i, fleetResp.Scores[i], singleResp.Scores[i])
		}
	}
	// Identical bodies route identically (cache affinity): re-sending the
	// request is answered from the owning replica's cache.
	buf, err := json.Marshal(predictRequest{Model: "m", Points: q})
	if err != nil {
		t.Fatal(err)
	}
	owner := f.Ring().Lookup(buf)
	before := cacheLen(f.Replica(owner))
	if before == 0 {
		t.Fatal("owning replica's cache is cold after the first request")
	}
	for i := 0; i < f.Len(); i++ {
		if i != owner && cacheLen(f.Replica(i)) != 0 {
			t.Fatalf("replica %d warmed its cache for a body it does not own", i)
		}
	}
}

// cacheLen counts live prediction-cache entries on a server.
func cacheLen(s *Server) int {
	if s.cache == nil {
		return 0
	}
	n := 0
	for i := range s.cache.shards {
		sh := &s.cache.shards[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}

// TestFleetDeleteFansOut removes a model from every replica.
func TestFleetDeleteFansOut(t *testing.T) {
	f, ts := testFleet(t, 3, Config{Workers: 1})
	x, y, labeled := testData(75, 50, 3, 18)
	fitOverHTTP(t, ts.URL, "gone", x, y, labeled, 0.8)
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/models/gone", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %d", resp.StatusCode)
	}
	for i := 0; i < f.Len(); i++ {
		if _, err := f.Replica(i).Registry().Load("gone"); err == nil {
			t.Fatalf("replica %d still serves the deleted model", i)
		}
	}
	// Deleting again is a clean 404.
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("double delete: %d", resp2.StatusCode)
	}
}

// TestFleetReadyzAggregates flips one replica to draining: the fleet must
// stop reporting ready.
func TestFleetReadyzAggregates(t *testing.T) {
	f, ts := testFleet(t, 3, Config{Workers: 1})
	resp, _ := getJSON(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh fleet readyz: %d", resp.StatusCode)
	}
	resp, body := getJSON(t, ts.URL+"/v1/fleet")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fleet topology: %d", resp.StatusCode)
	}
	var topo struct {
		Replicas []fleetReplica `json:"replicas"`
		Vnodes   int            `json:"vnodes"`
	}
	if err := json.Unmarshal(body, &topo); err != nil {
		t.Fatal(err)
	}
	if len(topo.Replicas) != 3 || !topo.Replicas[0].Leader || topo.Replicas[1].Leader {
		t.Fatalf("topology wrong: %+v", topo)
	}
	if topo.Vnodes != 3*defaultVnodes {
		t.Fatalf("vnodes = %d", topo.Vnodes)
	}
	f.Replica(2).BeginDrain()
	resp, _ = getJSON(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining fleet readyz: %d", resp.StatusCode)
	}
	// A draining replica also rejects fleet fits (the leader is fine, but
	// publication must not silently skip a replica — drain first).
	x, y, labeled := testData(77, 40, 3, 14)
	f.Replica(0).BeginDrain()
	resp2, _ := postJSON(t, ts.URL+"/v1/models/late", fitRequest{X: x, Y: y, Labeled: labeled, Bandwidth: 0.8})
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("fit on draining fleet: %d", resp2.StatusCode)
	}
}

func TestNewFleetValidation(t *testing.T) {
	if _, err := NewFleet(0, Config{}); err == nil {
		t.Fatal("zero replicas must error")
	}
}
