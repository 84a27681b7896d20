package simd

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/scenario"
)

// goldenTriad is the pinned metrics document of stream_triad_1t.
func goldenTriad(t *testing.T) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "scenario", "testdata", "golden", "stream_triad_1t.json"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// submitWait posts a blocking submit and returns the response with its
// body read.
func submitWait(t *testing.T, baseURL string, req Request) (*http.Response, []byte) {
	t.Helper()
	resp := submitRaw(t, baseURL, req, true)
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit %s: %s: %s", req.Scenario, resp.Status, b)
	}
	return resp, b
}

// memoryMetrics scrapes the index's two instruments and the cache-hit
// total through the strict parser.
func memoryMetrics(t *testing.T, baseURL string) (hits, memHits, memBytes float64) {
	t.Helper()
	fams := scrapeMetrics(t, baseURL)
	return metricValue(t, fams, "simd_cache_hits_total", "simd_cache_hits_total", ""),
		metricValue(t, fams, "simd_cache_memory_hits_total", "simd_cache_memory_hits_total", ""),
		metricValue(t, fams, "simd_cache_memory_bytes", "simd_cache_memory_bytes", "")
}

func TestDiskHitPromotesKeyToMemory(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{CacheDir: dir})
	golden := goldenTriad(t)
	req := Request{Scenario: "stream_triad_1t"}

	resp, b := submitWait(t, ts.URL, req)
	if src := resp.Header.Get("X-Simd-Source"); src != SourceSimulated {
		t.Fatalf("first submit source = %q, want %q", src, SourceSimulated)
	}
	if _, _, memBytes := memoryMetrics(t, ts.URL); memBytes != 0 {
		t.Errorf("a simulated result took %g bytes of the index", memBytes)
	}

	// The second submit is a disk hit, which promotes the key.
	resp, b = submitWait(t, ts.URL, req)
	if src := resp.Header.Get("X-Simd-Source"); src != SourceCache || !bytes.Equal(b, golden) {
		t.Fatalf("second submit: source %q, golden bytes %t", src, bytes.Equal(b, golden))
	}
	if hits, memHits, memBytes := memoryMetrics(t, ts.URL); hits != 1 || memHits != 0 || memBytes != float64(len(golden)) {
		t.Errorf("after the disk hit: hits %g, memory hits %g, memory bytes %g; want 1, 0, %d", hits, memHits, memBytes, len(golden))
	}

	// With the file gone, the third submit is answered from memory.
	key := resp.Header.Get("X-Simd-Key")
	if err := os.Remove(filepath.Join(dir, key+".json")); err != nil {
		t.Fatal(err)
	}
	resp, b = submitWait(t, ts.URL, req)
	if src := resp.Header.Get("X-Simd-Source"); src != SourceCache {
		t.Errorf("third submit source = %q, want %q", src, SourceCache)
	}
	if !bytes.Equal(b, golden) {
		t.Fatal("third submit differs from the golden file")
	}
	if resp.ContentLength != int64(len(golden)) {
		t.Errorf("Content-Length = %d, want %d", resp.ContentLength, len(golden))
	}
	if hits, memHits, _ := memoryMetrics(t, ts.URL); hits != 2 || memHits != 1 {
		t.Errorf("after the memory hit: hits %g, memory hits %g; want 2, 1", hits, memHits)
	}
}

func TestSimulatedResultIsNotIndexed(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{CacheDir: dir})
	req := Request{Scenario: "simd_test_fast"}
	resp, _ := submitWait(t, ts.URL, req)
	if err := os.Remove(filepath.Join(dir, resp.Header.Get("X-Simd-Key")+".json")); err != nil {
		t.Fatal(err)
	}
	// The next submission reads the disk, misses, and simulates again.
	resp, b := submitWait(t, ts.URL, req)
	if src := resp.Header.Get("X-Simd-Source"); src != SourceSimulated {
		t.Errorf("submit after removing the entry: source %q, want %q", src, SourceSimulated)
	}
	if !bytes.Equal(b, localBytes(t, "simd_test_fast")) {
		t.Error("re-simulated bytes differ from a local run")
	}
	if _, memHits, _ := memoryMetrics(t, ts.URL); memHits != 0 {
		t.Errorf("memory hits = %g, want 0", memHits)
	}
}

func TestRestartStillEvictsTruncatedEntry(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{CacheDir: dir})
	golden := goldenTriad(t)
	req := Request{Scenario: "stream_triad_1t"}
	submitWait(t, ts.URL, req)
	resp, _ := submitWait(t, ts.URL, req) // disk hit: promoted
	path := filepath.Join(dir, resp.Header.Get("X-Simd-Key")+".json")
	if err := os.Truncate(path, int64(len(golden)/2)); err != nil {
		t.Fatal(err)
	}

	// The promoted document outlives the damage on this server.
	resp, b := submitWait(t, ts.URL, req)
	if src := resp.Header.Get("X-Simd-Source"); src != SourceCache || !bytes.Equal(b, golden) {
		t.Errorf("promoted key after truncation: source %q, golden bytes %t", src, bytes.Equal(b, golden))
	}

	// A new server over the directory evicts the torn entry and simulates.
	var logBuf syncBuffer
	_, ts2 := newTestServer(t, Config{CacheDir: dir, Logger: slog.New(slog.NewJSONHandler(&logBuf, nil))})
	resp, b = submitWait(t, ts2.URL, req)
	if src := resp.Header.Get("X-Simd-Source"); src != SourceSimulated {
		t.Errorf("restarted server source = %q, want %q", src, SourceSimulated)
	}
	if !bytes.Equal(b, golden) {
		t.Error("re-simulated bytes differ from the golden file")
	}
	if !bytes.Contains(logBuf.Bytes(), []byte(`"msg":"cache entry evicted"`)) {
		t.Error("no eviction notice for the truncated entry")
	}
	if onDisk, err := os.ReadFile(path); err != nil || !bytes.Equal(onDisk, golden) {
		t.Errorf("entry not rewritten whole after the re-run (err %v)", err)
	}
}

// TestDocIndexLRU drives the index with random admissions and reads and
// compares it after every step with a list model: the documents it holds
// are the most recently used ones that fit the budget, and one larger than
// the budget is never admitted.
func TestDocIndexLRU(t *testing.T) {
	const budget = 100
	x := newDocIndex()
	x.budget = budget
	type doc struct {
		key  string
		size int
	}
	var model []doc // most recently used first
	find := func(key string) int {
		return slices.IndexFunc(model, func(d doc) bool { return d.key == key })
	}
	rng := rand.New(rand.NewPCG(1, 2))
	sizes := map[string]int{}
	for step := 0; step < 2000; step++ {
		key := fmt.Sprintf("k%d", rng.IntN(12))
		size, ok := sizes[key]
		if !ok {
			size = 1 + rng.IntN(budget+10) // a few never fit
			sizes[key] = size
		}
		if rng.IntN(2) == 0 {
			b, hit := x.get(key)
			i := find(key)
			if hit != (i >= 0) {
				t.Fatalf("step %d: get %s hit %t, model holds it %t", step, key, hit, i >= 0)
			}
			if hit {
				if len(b) != size {
					t.Fatalf("step %d: get %s returned %d bytes, want %d", step, key, len(b), size)
				}
				d := model[i]
				model = append([]doc{d}, slices.Delete(model, i, i+1)...)
			}
			continue
		}
		x.add(key, make([]byte, size))
		if size > budget {
			continue
		}
		if i := find(key); i >= 0 {
			model = slices.Delete(model, i, i+1)
		}
		model = append([]doc{{key, size}}, model...)
		total := 0
		for i, d := range model {
			if total+d.size > budget {
				model = model[:i]
				break
			}
			total += d.size
		}
		if got := x.size(); got != total {
			t.Fatalf("step %d: index holds %d bytes, model %d", step, got, total)
		}
		var keys []string
		for e := x.lru.Front(); e != nil; e = e.Next() {
			keys = append(keys, e.Value.(*indexEntry).key)
		}
		var want []string
		for _, d := range model {
			want = append(want, d.key)
		}
		if !slices.Equal(keys, want) {
			t.Fatalf("step %d: index order %v, model %v", step, keys, want)
		}
	}
}

// TestHotKeysConcurrentClients has eight clients repeat a few hot keys
// through the index, once with room for all of them and once with room for
// one, so admissions and evictions race with reads.
func TestHotKeysConcurrentClients(t *testing.T) {
	const keys, clients, rounds = 3, 8, 12
	want := make([][]byte, keys)
	sc, _ := scenario.Get("simd_test_fast")
	for k := range want {
		m, err := scenario.Run(sc, scenario.Options{Sampling: samplingSeed(int64(k + 1))})
		if err != nil {
			t.Fatal(err)
		}
		if want[k], err = m.JSON(); err != nil {
			t.Fatal(err)
		}
	}
	for _, budget := range []int{indexBudget, len(want[0]) + len(want[0])/2} {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			s, ts := newTestServer(t, Config{CacheDir: t.TempDir(), MaxQueued: 2 * clients * keys})
			s.index.budget = budget
			var wg sync.WaitGroup
			for i := 0; i < clients; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					c := &Client{BaseURL: ts.URL}
					for r := 0; r < rounds; r++ {
						k := (i + r) % keys
						res, err := c.Run(context.Background(), Request{Scenario: "simd_test_fast", Sampling: samplingSeed(int64(k + 1))})
						if err != nil {
							t.Errorf("client %d: %v", i, err)
							return
						}
						if !bytes.Equal(res.Metrics, want[k]) {
							t.Errorf("client %d round %d: key %d returned other bytes", i, r, k)
						}
					}
				}(i)
			}
			wg.Wait()
			if st := s.Stats(); st.Simulated != keys {
				t.Errorf("simulated %d jobs, want %d", st.Simulated, keys)
			}
			if memBytes := s.index.size(); memBytes > budget {
				t.Errorf("index holds %d bytes, over its budget of %d", memBytes, budget)
			}
		})
	}
}

// TestClientReadsChunkedReply: a reply without Content-Length is read to
// its end, as before.
func TestClientReadsChunkedReply(t *testing.T) {
	body := bytes.Repeat([]byte(`{"x":12345}`), 1000)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.Write(body[:len(body)/2])
		w.(http.Flusher).Flush() // no length is known: the reply goes out chunked
		w.Write(body[len(body)/2:])
	}))
	defer ts.Close()
	res, err := (&Client{BaseURL: ts.URL, Retries: -1}).Run(context.Background(), Request{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Metrics, body) {
		t.Errorf("chunked reply read as %d bytes, want %d", len(res.Metrics), len(body))
	}
}

// TestClientRetriesReplyCutShort: a body that ends before its
// Content-Length is a read error, retried like any other.
func TestClientRetriesReplyCutShort(t *testing.T) {
	body := []byte(`{"ok":true}`)
	var mu sync.Mutex
	attempts := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		attempts++
		n := attempts
		mu.Unlock()
		if n == 1 {
			conn, buf, err := w.(http.Hijacker).Hijack()
			if err != nil {
				t.Error(err)
				return
			}
			fmt.Fprintf(buf, "HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s", len(body), body[:4])
			buf.Flush()
			conn.Close()
			return
		}
		writeWhole(w, http.StatusOK, body)
	}))
	defer ts.Close()
	res, err := (&Client{BaseURL: ts.URL, Retries: 2, BaseDelay: 1}).Run(context.Background(), Request{})
	if err != nil {
		t.Fatal(err)
	}
	if attempts != 2 || !bytes.Equal(res.Metrics, body) {
		t.Errorf("attempts %d, body %q; want 2, %q", attempts, res.Metrics, body)
	}
}

// TestClientReusesConnection: reading exactly Content-Length bytes still
// reaches the body's end, so sequential jobs share one connection.
func TestClientReusesConnection(t *testing.T) {
	var mu sync.Mutex
	conns := 0
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeWhole(w, http.StatusOK, bytes.Repeat([]byte("x"), 10000))
	}))
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			mu.Lock()
			conns++
			mu.Unlock()
		}
	}
	ts.Start()
	defer ts.Close()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	c := &Client{BaseURL: ts.URL, HTTP: &http.Client{Transport: tr}, Retries: -1}
	for i := 0; i < 5; i++ {
		if _, err := c.Run(context.Background(), Request{}); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if conns != 1 {
		t.Errorf("5 sequential jobs opened %d connections, want 1", conns)
	}
}

func TestReadBody(t *testing.T) {
	reply := func(length int64, body string) *http.Response {
		return &http.Response{ContentLength: length, Body: io.NopCloser(strings.NewReader(body))}
	}
	for _, tc := range []struct {
		name   string
		length int64
		body   string
		want   string
		fails  bool
	}{
		{"framed", 3, "abc", "abc", false},
		{"empty", 0, "", "", false},
		{"unknown length", -1, "abc", "abc", false},
		// Above the cap the declared length is not trusted for the
		// allocation; the capped reader takes over.
		{"over the cap", maxReplyBody + 1, "abc", "abc", false},
		{"cut short", 5, "abc", "", true},
	} {
		b, err := readBody(reply(tc.length, tc.body))
		if (err != nil) != tc.fails || string(b) != tc.want {
			t.Errorf("%s: got %q, %v", tc.name, b, err)
		}
	}
}
