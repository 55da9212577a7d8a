package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"

	"dsssp/internal/graph"
)

// specRebuild builds a generator spec's graph the way a client holding the
// spec-seed contract does (the benchmark's own rebuild), independently of
// the server's builder.
func specRebuild(spec GraphSpec) *graph.Graph {
	w := graph.UnitWeights
	if ws := spec.Weights; ws != nil {
		switch ws.Kind {
		case "uniform":
			w = graph.UniformWeights(ws.MaxW, weightSeed(spec))
		case "zero-heavy":
			w = graph.ZeroHeavyWeights(ws.MaxW, weightSeed(spec))
		}
	}
	return graph.Make(graph.Family(spec.Family), spec.N, w, spec.Seed)
}

// indexed returns the spec index's entry for spec, failing the test if the
// spec was never indexed.
func indexed(t *testing.T, s *Server, spec GraphSpec) (digest [32]byte, n int) {
	t.Helper()
	gen, err := parseGenerator(spec, s.cfg.MaxN)
	if err != nil {
		t.Fatal(err)
	}
	entry, out, err := s.specs.getOrCompute(gen.indexKey(), func() ([]byte, bool, error) {
		return nil, false, fmt.Errorf("spec %s is not indexed", gen.indexKey())
	})
	if err != nil || out != cacheHit {
		t.Fatalf("spec index lookup: outcome %v, err %v", out, err)
	}
	copy(digest[:], entry)
	return digest, int(binary.LittleEndian.Uint64(entry[len(digest):]))
}

func specBody(spec GraphSpec, src int) string {
	b, _ := json.Marshal(SSSPRequest{Graph: spec, Source: int64(src)}) // plain data always marshals
	return string(b)
}

// wantSSSP asserts a 200 /v1/sssp reply served as cache (hit or miss) with
// the reference distances, and returns its body.
func wantSSSP(t *testing.T, w *httptest.ResponseRecorder, cache string, ref []int64) []byte {
	t.Helper()
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get("X-Dsssp-Cache"); got != cache {
		t.Fatalf("X-Dsssp-Cache = %q, want %q", got, cache)
	}
	var resp SSSPResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(resp.Dist, ref) {
		t.Fatalf("dist %v, want Dijkstra's %v", resp.Dist, ref)
	}
	return w.Body.Bytes()
}

// TestSpecIndex drives every generator family under every weight kind
// through the spec index at n=20, where grid (25 nodes), cluster (24) and
// disconnected (18) build a node count other than the spec's n:
//
//   - a cold request indexes the spec; a new source on the same spec is an
//     index hit but an answer miss, and both answers are Dijkstra's on the
//     client-side rebuild;
//   - the indexed digest is the rebuild's, and the server's builder
//     reproduces it on every call (a WeightFn reused across builds would
//     draw a different graph the second time);
//   - an index hit range-checks against the built node count;
//   - the spec and its inline edge list share cache entries both ways.
func TestSpecIndex(t *testing.T) {
	const n = 20
	weights := map[string]*WeightSpec{
		"unit":       nil,
		"uniform":    {Kind: "uniform", MaxW: n},
		"zero-heavy": {Kind: "zero-heavy", MaxW: n},
	}
	for _, fam := range graph.Families() {
		for kind, ws := range weights {
			t.Run(string(fam)+"/"+kind, func(t *testing.T) {
				s := testServer(t)
				spec := GraphSpec{Family: string(fam), N: n, Seed: 5, Weights: ws}
				ref := specRebuild(spec)
				nReal := ref.N()

				// (a) Cold, then a new source: the index misses once.
				wantSSSP(t, do(t, s, "POST", "/v1/sssp", specBody(spec, 0)), "miss", graph.Dijkstra(ref, 0))
				// (c) Range checks on an index hit use the built node count.
				wantErrorJSON(t, do(t, s, "POST", "/v1/sssp", specBody(spec, nReal)), 400,
					fmt.Sprintf("source %d out of range [0,%d)", nReal, nReal))
				last := graph.NodeID(nReal - 1)
				wantSSSP(t, do(t, s, "POST", "/v1/sssp", specBody(spec, nReal-1)), "miss", graph.Dijkstra(ref, last))
				if st := s.specs.Stats(); st.Misses != 1 || st.Hits != 2 {
					t.Fatalf("spec index: %d misses, %d hits; want 1 and 2", st.Misses, st.Hits)
				}

				// (b) The index holds the rebuild's digest and node count, and
				// every server-side build reproduces that digest.
				digest, gotN := indexed(t, s, spec)
				if gotN != nReal {
					t.Fatalf("indexed n = %d, want %d", gotN, nReal)
				}
				if want := canonicalGraphDigest(ref); digest != want {
					t.Fatalf("indexed digest %x, rebuild's %x", digest, want)
				}
				gen, err := parseGenerator(spec, s.cfg.MaxN)
				if err != nil {
					t.Fatal(err)
				}
				for i := range 2 {
					g, err := gen.build()
					if err != nil {
						t.Fatal(err)
					}
					if canonicalGraphDigest(g) != digest {
						t.Fatalf("build %d: digest differs from the indexed one", i)
					}
				}

				// (d) Generator and inline descriptions share entries.
				inline := GraphSpec{N: nReal}
				for _, e := range ref.Edges() {
					inline.Edges = append(inline.Edges, [3]int64{int64(e.U), int64(e.V), e.W})
				}
				wantSSSP(t, do(t, s, "POST", "/v1/sssp", specBody(inline, 0)), "hit", graph.Dijkstra(ref, 0))
				mid := nReal / 2
				ib := wantSSSP(t, do(t, s, "POST", "/v1/sssp", specBody(inline, mid)), "miss", graph.Dijkstra(ref, graph.NodeID(mid)))
				gb := wantSSSP(t, do(t, s, "POST", "/v1/sssp", specBody(spec, mid)), "hit", graph.Dijkstra(ref, graph.NodeID(mid)))
				if !bytes.Equal(ib, gb) {
					t.Fatal("generator hit on the inline entry returned different bytes")
				}
			})
		}
	}
}

// TestSpecIndexOutOfDomainNotIndexed pins that a generator spec whose built
// graph lies outside the weight domain is a 400, and is not indexed: a
// repeat is rejected the same way.
func TestSpecIndexOutOfDomainNotIndexed(t *testing.T) {
	s := testServer(t)
	// n=64 uniform weights up to maxWeight(64) pass the per-weight ceiling
	// but not n·maxW < 2^61.
	body := fmt.Sprintf(`{"graph":{"family":"random","n":64,"weights":{"kind":"uniform","max_w":%d}}}`, maxWeight(64))
	for range 2 {
		wantErrorJSON(t, do(t, s, "POST", "/v1/sssp", body), 400, "graph weights out of domain")
	}
	if st := s.specs.Stats(); st.Entries != 0 || st.Misses != 2 {
		t.Fatalf("spec index: %d entries, %d misses; want 0 and 2", st.Entries, st.Misses)
	}
}

// TestSpecIndexConcurrentColdSpec sends one cold spec from 8 goroutines at
// once: the spec is built and indexed once, and every reply is the same
// correct bytes.
func TestSpecIndexConcurrentColdSpec(t *testing.T) {
	s := testServer(t)
	spec := GraphSpec{Family: "cluster", N: 30, Seed: 11, Weights: &WeightSpec{Kind: "zero-heavy", MaxW: 9}}
	ref := graph.Dijkstra(specRebuild(spec), 3)
	body := specBody(spec, 3)
	const clients = 8
	replies := make([]*httptest.ResponseRecorder, clients)
	var wg sync.WaitGroup
	gate := make(chan struct{})
	for i := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := httptest.NewRequest("POST", "/v1/sssp", strings.NewReader(body))
			<-gate
			replies[i] = httptest.NewRecorder()
			s.Handler().ServeHTTP(replies[i], req)
		}()
	}
	close(gate)
	wg.Wait()
	for i, w := range replies {
		if w.Code != http.StatusOK {
			t.Fatalf("client %d: status %d: %s", i, w.Code, w.Body.String())
		}
		var resp SSSPResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(resp.Dist, ref) {
			t.Fatalf("client %d: dist %v, want %v", i, resp.Dist, ref)
		}
		if !bytes.Equal(w.Body.Bytes(), replies[0].Body.Bytes()) {
			t.Fatalf("client %d: body differs from client 0's", i)
		}
	}
	if st := s.specs.Stats(); st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("spec index: %d misses, %d entries; want 1 and 1", st.Misses, st.Entries)
	}
	if st := s.cache.Stats(); st.Misses != 1 {
		t.Fatalf("result cache: %d misses, want 1", st.Misses)
	}
}

// TestSpecIndexResolveSpanBuilt pins the trace evidence: graph.resolve says
// whether the request built its graph — true for a cold generator spec and
// for an inline graph, false on a spec-index hit, even one whose answer
// misses.
func TestSpecIndexResolveSpanBuilt(t *testing.T) {
	s := tracingServer(t, 1.0, 0, 0)
	built := func(body string) any {
		t.Helper()
		w, id := doTraced(t, s, "POST", "/v1/sssp", body)
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
		for _, sp := range s.tracer.Recorder().Get(id).Spans {
			if sp.Name == "graph.resolve" {
				return sp.Attrs["built"]
			}
		}
		t.Fatal("no graph.resolve span")
		return nil
	}
	spec := `{"graph":{"family":"grid","n":20,"seed":2},"source":%d}`
	for _, c := range []struct {
		body string
		want bool
	}{
		{fmt.Sprintf(spec, 0), true},   // index miss
		{fmt.Sprintf(spec, 0), false},  // index hit, answer hit
		{fmt.Sprintf(spec, 24), false}, // index hit, answer miss
		{`{"graph":` + ciGraphJSON + `}`, true},
	} {
		if got := built(c.body); got != c.want {
			t.Fatalf("%s: graph.resolve built = %v, want %v", c.body, got, c.want)
		}
	}
}

// TestSpecIndexHitAllocs pins where a generator hit's cost went: after
// warm-up, a whole unsampled /v1/sssp hit allocates less than building the
// spec's graph alone.
func TestSpecIndexHitAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector allocates")
	}
	s := tracingServer(t, -1, 0, 0)
	h := s.Handler()
	serve := func() {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/sssp", strings.NewReader(tracingBody)))
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	}
	serve()
	hit := testing.AllocsPerRun(100, serve)
	var req SSSPRequest
	if err := json.Unmarshal([]byte(tracingBody), &req); err != nil {
		t.Fatal(err)
	}
	build := testing.AllocsPerRun(100, func() {
		if _, err := buildGeneratorGraph(req.Graph, s.cfg.MaxN); err != nil {
			t.Fatal(err)
		}
	})
	if hit >= build {
		t.Fatalf("a generator cache hit allocates %.0f/run, building its graph alone %.0f/run", hit, build)
	}
}

// raceEnabled reports whether the test binary was built with -race, whose
// instrumentation allocates on its own.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
