package serve

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/cell"
	"repro/internal/gen"
	"repro/internal/netlist"
)

// memoHit reports whether ref resolves from dr's memo: a hit returns no
// design, a miss returns the one it parsed.
func memoHit(t *testing.T, dr *designResolver, ref DesignRef) bool {
	t.Helper()
	_, d, err := dr.resolve(&ref, math.MaxInt)
	if err != nil {
		t.Fatalf("resolve %q: %v", ref.Name, err)
	}
	return d == nil
}

// TestUploadKeyMemoRepeatIsByteIdentical: a repeated upload resolves from
// the memo at both tiers and answers the same bytes, also when its prefix
// was evicted in between so the replica parses it again for the build.
func TestUploadKeyMemoRepeatIsByteIdentical(t *testing.T) {
	servers, urls := newCluster(t, 1, Options{CacheSize: 1}, nil)
	rt, viaRouter := newTestRouter(t, urls, RouterOptions{})
	direct := NewClient(urls[0])
	hot := string(encodeJSON(t, TuneRequest{DesignRef: DesignRef{Netlist: chainBench(12), Name: "hot"}, Beta: 0.05}))
	cold := string(encodeJSON(t, TuneRequest{DesignRef: DesignRef{Netlist: chainBench(9)}, Beta: 0.05}))
	var first []byte
	for i, tc := range []struct {
		c    *Client
		body string
	}{{direct, hot}, {direct, hot}, {viaRouter, hot}, {direct, cold}, {viaRouter, hot}, {direct, hot}} {
		status, resp := postRaw(t, tc.c, "/v1/tune", tc.body)
		if status != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, status, resp)
		}
		if tc.body != hot {
			continue
		}
		if first == nil {
			first = resp
		} else if !bytes.Equal(resp, first) {
			t.Fatalf("request %d: body differs from the first:\n%s\nvs\n%s", i, resp, first)
		}
	}
	if n := servers[0].keys.uploads.Len(); n != 2 {
		t.Errorf("replica memo holds %d uploads, want 2", n)
	}
	if n := rt.keys.uploads.Len(); n != 1 {
		t.Errorf("router memo holds %d uploads, want 1", n)
	}
	ref := DesignRef{Netlist: chainBench(12), Name: "hot"}
	for tier, dr := range map[string]*designResolver{"fbbd": servers[0].keys, "router": rt.keys} {
		if !memoHit(t, dr, ref) {
			t.Errorf("%s: repeated upload missed the memo", tier)
		}
	}
}

// TestUploadKeyMemoKeysMatchParse: a memoized key is the key of the parsed
// upload, the pinned c5315-as-hot0 key included, and a name left empty
// shares the "custom" entry.
func TestUploadKeyMemoKeysMatchParse(t *testing.T) {
	lib := cell.Default()
	c5315, err := gen.Build("c5315", lib)
	if err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	if err := netlist.WriteBench(&text, c5315); err != nil {
		t.Fatal(err)
	}
	upload, err := netlist.ParseBench(strings.NewReader(text.String()), "hot0", lib)
	if err != nil {
		t.Fatal(err)
	}
	dr := newDesignResolver(nil)
	ref := DesignRef{Netlist: text.String(), Name: "hot0"}
	for i := 0; i < 2; i++ {
		info, _, err := dr.resolve(&ref, math.MaxInt)
		if err != nil {
			t.Fatal(err)
		}
		if want := "122599fa7b71fddcbbe3afda8d4bba13a2eceb5e3980299ed7eb7c23e0e22b5e"; info.key != want {
			t.Fatalf("resolve %d: key %s, want %s", i, info.key, want)
		}
		if info.gates != upload.NumGates() {
			t.Fatalf("resolve %d: %d gates, want %d", i, info.gates, upload.NumGates())
		}
	}
	if memoHit(t, dr, DesignRef{Netlist: chainBench(5), Name: "custom"}) {
		t.Fatal("fresh upload hit the memo")
	}
	if !memoHit(t, dr, DesignRef{Netlist: chainBench(5)}) {
		t.Fatal(`unnamed upload missed the "custom" entry`)
	}
}

// TestUploadKeyMemoMisses: a change to the name, to forceRows or to one
// byte of the text is a different upload, and so is a byte moved across
// the name/text boundary: forceRows 5 encodes as the byte '\n', so
// without the name's length prefix ("u\n", 5, T) and ("u", 5, "\n"+T)
// would hash the same bytes.
func TestUploadKeyMemoMisses(t *testing.T) {
	dr := New(Options{}).keys
	base := DesignRef{Netlist: chainBench(8), Name: "u", ForceRows: 2}
	if memoHit(t, dr, base) || !memoHit(t, dr, base) {
		t.Fatal("base upload: want a miss, then a hit")
	}
	oneByte := strings.Replace(base.Netlist, "NAND(n6", "NAND(n5", 1)
	if oneByte == base.Netlist {
		t.Fatal("byte edit did not apply")
	}
	for _, tc := range []struct {
		what string
		ref  DesignRef
	}{
		{"name", DesignRef{Netlist: base.Netlist, Name: "v", ForceRows: 2}},
		{"forceRows", DesignRef{Netlist: base.Netlist, Name: "u", ForceRows: 3}},
		{"one byte", DesignRef{Netlist: oneByte, Name: "u", ForceRows: 2}},
		{"name ends in a newline", DesignRef{Netlist: base.Netlist, Name: "u\n", ForceRows: 5}},
		{"that newline moved to the text", DesignRef{Netlist: "\n" + base.Netlist, Name: "u", ForceRows: 5}},
	} {
		if memoHit(t, dr, tc.ref) {
			t.Errorf("%s: the upload hit the memo", tc.what)
		}
	}
}

// TestUploadKeyMemoSkipsFailures: a parse error, a one-input NAND and a
// multiply-driven net are never memoized, and every request gets the same
// line-numbered 400 at both tiers; an upload over MaxGates is a 400 on
// every request and enters neither tier's memo. The router answers each
// with the replica's exact 400 body.
func TestUploadKeyMemoSkipsFailures(t *testing.T) {
	servers, urls := newCluster(t, 1, Options{MaxGates: 10}, nil)
	rt, viaRouter := newTestRouter(t, urls, RouterOptions{MaxGates: 10})
	direct := NewClient(urls[0])
	for _, tc := range []struct{ netlist, want string }{
		{"INPUT(a)\nOUTPUT(y)\ny = FROB(a, a)\n", "bench line 3"},
		{"INPUT(a)\nOUTPUT(y)\ny = NAND(a)\n", "bench line 3"},
		{"INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\ny = NOR(a, b)\n",
			`bench line 5: net \"y\" already driven by line 4`},
		{chainBench(11), "design too large: 11 gates"},
	} {
		body := string(encodeJSON(t, TuneRequest{DesignRef: DesignRef{Netlist: tc.netlist}, Beta: 0.05}))
		firsts := map[string][]byte{}
		for tier, c := range map[string]*Client{"fbbd": direct, "router": viaRouter} {
			var first []byte
			for i := 0; i < 3; i++ {
				status, resp := postRaw(t, c, "/v1/tune", body)
				if status != http.StatusBadRequest || !strings.Contains(string(resp), tc.want) {
					t.Fatalf("%s request %d: status %d (%s), want 400 with %s", tier, i, status, resp, tc.want)
				}
				if first == nil {
					first = resp
				} else if !bytes.Equal(resp, first) {
					t.Fatalf("%s request %d: 400 body %s, first was %s", tier, i, resp, first)
				}
			}
			firsts[tier] = first
		}
		if !bytes.Equal(firsts["router"], firsts["fbbd"]) {
			t.Fatalf("router 400 %s, replica 400 %s", firsts["router"], firsts["fbbd"])
		}
	}
	if n := servers[0].keys.uploads.Len(); n != 0 {
		t.Errorf("replica memoized %d failed uploads", n)
	}
	if n := rt.keys.uploads.Len(); n != 0 {
		t.Errorf("router memoized %d failed uploads", n)
	}
}

// TestUploadKeyMemoBounded: past uploadMemoSize distinct uploads the memo
// stays at its bound and drops the least recently used first.
func TestUploadKeyMemoBounded(t *testing.T) {
	dr := New(Options{}).keys
	text := chainBench(2)
	upload := func(i int) DesignRef { return DesignRef{Netlist: text, Name: fmt.Sprintf("u%d", i)} }
	for i := 0; i < uploadMemoSize+10; i++ {
		if memoHit(t, dr, upload(i)) {
			t.Fatalf("upload %d: fresh upload hit the memo", i)
		}
		if n := dr.uploads.Len(); n > uploadMemoSize {
			t.Fatalf("memo holds %d uploads after %d, bound %d", n, i+1, uploadMemoSize)
		}
	}
	if n := dr.uploads.Len(); n != uploadMemoSize {
		t.Fatalf("memo holds %d uploads, want %d", n, uploadMemoSize)
	}
	if !memoHit(t, dr, upload(uploadMemoSize+9)) || !memoHit(t, dr, upload(10)) {
		t.Fatal("a resident upload missed the memo")
	}
	if memoHit(t, dr, upload(9)) {
		t.Fatal("the memo kept an upload older than its bound")
	}
}

// TestUploadKeyMemoConcurrent: identical uploads racing through the router
// (the serve CI job runs this under -race) all answer the same bytes and
// leave one entry per tier.
func TestUploadKeyMemoConcurrent(t *testing.T) {
	const n = 8
	servers, urls := newCluster(t, 1, Options{Workers: n}, nil) // every request admitted at once
	rt, viaRouter := newTestRouter(t, urls, RouterOptions{})
	body := string(encodeJSON(t, TuneRequest{DesignRef: DesignRef{Netlist: chainBench(10)}, Beta: 0.05}))
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, resp := postRaw(t, viaRouter, "/v1/tune", body)
			if status != http.StatusOK {
				t.Errorf("status %d: %s", status, resp)
			}
			bodies[i] = resp
		}()
	}
	wg.Wait()
	for i := range bodies {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("concurrent upload %d answered differently", i)
		}
	}
	if a, b := servers[0].keys.uploads.Len(), rt.keys.uploads.Len(); a != 1 || b != 1 {
		t.Fatalf("memo entries: replica %d, router %d; want 1 each", a, b)
	}
}

// TestBuiltinKeysMemoized: the replica resolves each built-in
// benchmark#forceRows once, like the router.
func TestBuiltinKeysMemoized(t *testing.T) {
	s := New(Options{})
	for i := 0; i < 3; i++ {
		for _, fr := range []int{0, 2} {
			if _, err := s.prefixErr(t.Context(), &DesignRef{Benchmark: "c1355", ForceRows: fr}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := s.keys.builtins.Len(); n != 2 {
		t.Fatalf("built-in key memo holds %d entries, want 2", n)
	}
	if n := s.designs.Len(); n != 1 {
		t.Fatalf("designs cache holds %d entries, want 1", n)
	}
}
