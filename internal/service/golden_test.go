package service

import (
	"bytes"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the query golden files under testdata/")

// goldenDynamicGraph is a weighted path 0…7 closed by a heavy {0,7} edge,
// with a {2,5} chord. Deleting {1,2} orphans most of the graph for sources
// 0 and 1 (their repairs outgrow the n/2 cutoff and recompute) but only
// {0,1} for every other source (repaired in place).
const goldenDynamicGraph = `{"n":8,"edges":[[0,1,2],[1,2,1],[2,3,3],[3,4,1],[4,5,2],[5,6,1],[6,7,1],[0,7,20],[2,5,9]]}`

// goldenStep is one request of the scripted query sequence; "{id}" in its
// path or body expands to the registered graph's handle. Graph register and
// PATCH steps only set the stage: their replies carry timestamps and are
// pinned by the dynamic-graph tests, so only their status is checked here.
type goldenStep struct {
	name, method, path, body string
}

var goldenSteps = []goldenStep{
	{"inline-sssp-miss", "POST", "/v1/sssp", `{"graph":{"n":6,"edges":[[0,1,2],[1,2,1],[2,3,5],[4,5,1]]},"source":0}`},
	{"inline-sssp-hit", "POST", "/v1/sssp", `{"graph":{"n":6,"edges":[[4,5,1],[2,1,1],[3,2,5],[1,0,2]]},"source":0}`},
	{"generator-path", "POST", "/v1/path", `{"graph":{"family":"random","n":16,"seed":3,"weights":{"kind":"uniform","max_w":16}},"source":0,"target":11}`},
	{"generator-path-trace", "POST", "/v1/path?trace=1", `{"graph":{"family":"random","n":16,"seed":3,"weights":{"kind":"uniform","max_w":16}},"source":1,"target":11}`},
	{"generator-apsp", "POST", "/v1/apsp", `{"graph":{"family":"grid","n":9,"seed":1},"seed":2}`},
	{"generator-apsp-trace", "POST", "/v1/apsp?trace=1", `{"graph":{"family":"cycle","n":6,"seed":1},"seed":2}`},
	{"sssp-trace-phases", "POST", "/v1/sssp?trace=1", `{"graph":{"family":"random","n":16,"seed":3,"weights":{"kind":"uniform","max_w":16}},"source":2}`},
	{"register", "POST", "/v1/graphs", `{"graph":` + goldenDynamicGraph + `}`},
	{"registered-sssp-0", "POST", "/v1/sssp", `{"graph":{"graph_id":"{id}"},"source":0}`},
	{"registered-sssp-1", "POST", "/v1/sssp", `{"graph":{"graph_id":"{id}"},"source":1}`},
	{"registered-path-0", "POST", "/v1/path", `{"graph":{"graph_id":"{id}"},"source":0,"target":5}`},
	{"registered-path-2", "POST", "/v1/path", `{"graph":{"graph_id":"{id}"},"source":2,"target":7}`},
	{"registered-apsp-reused", "POST", "/v1/apsp", `{"graph":{"graph_id":"{id}"},"seed":4}`},
	{"registered-sssp-hit", "POST", "/v1/sssp", `{"graph":{"graph_id":"{id}"},"source":1}`},
	{"patch", "PATCH", "/v1/graphs/{id}/edges", `{"deltas":[{"op":"delete","u":1,"v":2}]}`},
	{"repaired-sssp", "POST", "/v1/sssp", `{"graph":{"graph_id":"{id}"},"source":3}`},
	{"repaired-path", "POST", "/v1/path", `{"graph":{"graph_id":"{id}"},"source":6,"target":0}`},
	{"fallback-sssp", "POST", "/v1/sssp", `{"graph":{"graph_id":"{id}"},"source":0}`},
	{"mixed-apsp", "POST", "/v1/apsp", `{"graph":{"graph_id":"{id}"},"seed":4}`},
	{"apsp-all-reused", "POST", "/v1/apsp", `{"graph":{"graph_id":"{id}"},"seed":4}`},
	{"apsp-all-reused-trace", "POST", "/v1/apsp?trace=1", `{"graph":{"graph_id":"{id}"},"seed":4}`},
}

// TestQueryGolden pins the exact bytes the query endpoints serve: status,
// body and every X-Dsssp-* header except the random request ID, for one
// scripted sequence spanning every endpoint, graph kind and serving class
// (computed, cache hit, repaired, partially reused APSP). Regenerate with
// `go test ./internal/service -run TestQueryGolden -update`.
func TestQueryGolden(t *testing.T) {
	s := testServer(t)
	var handle string
	for i, st := range goldenSteps {
		w := do(t, s, st.method, strings.ReplaceAll(st.path, "{id}", handle), strings.ReplaceAll(st.body, "{id}", handle))
		switch st.name {
		case "register":
			var info GraphInfo
			decodeBody(t, w, http.StatusCreated, &info)
			handle = info.ID
			continue
		case "patch":
			if w.Code != http.StatusOK {
				t.Fatalf("patch: status %d: %s", w.Code, w.Body.Bytes())
			}
			continue
		}
		var got bytes.Buffer
		fmt.Fprintf(&got, "status: %d\n", w.Code)
		var names []string
		for k := range w.Header() {
			if strings.HasPrefix(k, "X-Dsssp-") && k != RequestIDHeader {
				names = append(names, k)
			}
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(&got, "%s: %s\n", k, w.Header().Get(k))
		}
		got.WriteString("\n")
		got.Write(w.Body.Bytes())

		file := filepath.Join("testdata", "query_golden", fmt.Sprintf("%02d-%s.txt", i+1, st.name))
		if *updateGolden {
			if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(file, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(file)
		if err != nil {
			t.Fatalf("%v (regenerate with -update)", err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("step %d (%s) differs from %s:\ngot:\n%s\nwant:\n%s", i+1, st.name, file, got.Bytes(), want)
		}
	}
}
