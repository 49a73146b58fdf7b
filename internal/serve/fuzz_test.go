package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cell"
	"repro/internal/netlist"
)

// FuzzDecodeRequest throws arbitrary bytes at every /v1/* request decoder:
// no panic, ever — bad input is a 400-shaped error value. Requests that
// survive decoding and validation with an embedded netlist also go through
// the .bench parser and the cache-key hasher, the rest of the
// attacker-controlled surface before any flow work starts.
func FuzzDecodeRequest(f *testing.F) {
	f.Add([]byte(`{"benchmark":"c1355","beta":0.05,"maxClusters":3,"solver":"heuristic"}`))
	f.Add([]byte(`{"benchmark":"c1355","die":{"seed":7,"guardbandPct":0.01}}`))
	f.Add([]byte(`{"netlist":"INPUT(a)\nINPUT(b)\nOUTPUT(n0)\nn0 = NAND(a, b)\n","dies":4,"seed":9}`))
	f.Add([]byte(`{"benchmarks":["c1355"],"betas":[0.05],"ilpGateLimit":1}`))
	f.Add([]byte(`{"benchmark":"c1355"} {"trailing":1}`))
	f.Add([]byte(`{"benchmrk":"unknown field"}`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"netlist":"INPUT(a)\ny = ZAP(a)\nOUTPUT(y)"}`))
	f.Add([]byte{0xff, 0xfe, 0x00})
	// Resume bodies: a possible prior, an impossible one, a footer-only
	// resume (ckpt == dies), and one beyond the default maxIters.
	f.Add([]byte(`{"benchmark":"c1355","dies":4,"resume":{"ckpt":2,"acc":{"dies":2,"metBefore":1,"metAfter":2,"worstBetaPct":3,"sumBetaPct":4,"sumLeakBeforeNW":500,"sumLeakAfterNW":600,"sumLeakTunedOnlyNW":350,"tunedDies":1,"sumIters":1,"sumClusters":2}}}`))
	f.Add([]byte(`{"benchmark":"c1355","dies":2,"resume":{"ckpt":1,"acc":{"dies":1,"metBefore":-5,"metAfter":1000,"tunedDies":7,"failedCompensations":-3}}}`))
	f.Add([]byte(`{"benchmark":"c1355","dies":3,"resume":{"ckpt":3,"acc":{"dies":3,"metBefore":2,"metAfter":2,"failedCompensations":1,"sumLeakBeforeNW":900,"sumLeakAfterNW":950}}}`))
	f.Add([]byte(`{"benchmark":"c1355","dies":2,"resume":{"ckpt":1,"acc":{"dies":1,"metAfter":1,"tunedDies":1,"sumIters":1000,"sumClusters":50}}}`))

	lib := cell.Default()
	f.Fuzz(func(t *testing.T, data []byte) {
		tryNetlist := func(text string, forceRows int) {
			if text == "" || len(text) > 1<<16 {
				return
			}
			d, err := netlist.ParseBench(strings.NewReader(text), "fuzz", lib)
			if err != nil {
				return
			}
			if key := DesignKey(d, forceRows); len(key) != 64 {
				t.Fatalf("bad key %q", key)
			}
		}

		var tune TuneRequest
		if e := decodeJSON(bytes.NewReader(data), &tune); e == nil {
			if e := tune.validate(); e == nil {
				tryNetlist(tune.Netlist, tune.ForceRows)
			}
		}
		var yield YieldRequest
		if e := decodeJSON(bytes.NewReader(data), &yield); e == nil {
			if e := yield.validate(1_000_000); e == nil {
				if yield.Resume != nil {
					if err := yield.Resume.Acc.Validate(yield.tuneOptions()); err != nil {
						t.Fatalf("validated resume carries an impossible accumulator: %v", err)
					}
				}
				tryNetlist(yield.Netlist, yield.ForceRows)
			}
		}
		var t1 Table1Request
		if e := decodeJSON(bytes.NewReader(data), &t1); e == nil {
			_ = t1.validate()
		}
	})
}

// fuzzDesign deterministically grows a small design from a byte script so
// the fuzzer explores the space of structurally distinct netlists. Returns
// nil when the script is too short to make a design.
func fuzzDesign(name string, script []byte) *netlist.Design {
	if len(script) == 0 {
		return nil
	}
	b := netlist.NewBuilder(name, cell.Default())
	nPI := 1 + int(script[0])%3
	var sigs []netlist.Signal
	for i := 0; i < nPI; i++ {
		sigs = append(sigs, b.PI(fmt.Sprintf("i%d", i)))
	}
	maxGates := 24
	for _, op := range script[1:] {
		if b.NumGates() >= maxGates {
			break
		}
		a := sigs[int(op)%len(sigs)]
		c := sigs[int(op>>3)%len(sigs)]
		var s netlist.Signal
		switch op % 5 {
		case 0:
			s = b.Nand(a, c)
		case 1:
			s = b.Nor(a, c)
		case 2:
			s = b.Not(a)
		case 3:
			s = b.And(a, c)
		default:
			s = b.Or(a, c)
		}
		sigs = append(sigs, s)
	}
	b.Output("o", sigs[len(sigs)-1])
	d, err := b.Build()
	if err != nil {
		return nil
	}
	return d
}

// sameDesign compares exactly the fields DesignKey covers.
func sameDesign(a, b *netlist.Design) bool {
	if a.Name != b.Name || len(a.PINames) != len(b.PINames) ||
		len(a.Gates) != len(b.Gates) || len(a.POs) != len(b.POs) {
		return false
	}
	for i := range a.PINames {
		if a.PINames[i] != b.PINames[i] {
			return false
		}
	}
	for i := range a.Gates {
		ga, gb := &a.Gates[i], &b.Gates[i]
		if ga.Cell.Name != gb.Cell.Name || len(ga.Ins) != len(gb.Ins) {
			return false
		}
		for k := range ga.Ins {
			if ga.Ins[k] != gb.Ins[k] {
				return false
			}
		}
	}
	for i := range a.POs {
		if a.POs[i] != b.POs[i] {
			return false
		}
	}
	return true
}

// FuzzDesignKey pins the cache key's injectivity on the explored corpus:
// two designs must collide exactly when they are structurally identical
// and share a row override — a sloppy canonical encoding (missing length
// prefixes, dropped fields) shows up as distinct netlists mapping onto one
// cache entry, which in production would silently serve design A's timing
// for design B.
func FuzzDesignKey(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5}, []byte{1, 2, 3, 4, 5}, uint8(0), uint8(0))
	f.Add([]byte{1, 2, 3, 4, 5}, []byte{1, 2, 3, 4, 6}, uint8(0), uint8(0))
	f.Add([]byte{9, 200, 13, 77}, []byte{9, 200, 13}, uint8(2), uint8(2))
	f.Add([]byte{0, 0, 0, 0}, []byte{0, 0, 0, 0}, uint8(0), uint8(3))

	f.Fuzz(func(t *testing.T, s1, s2 []byte, rows1, rows2 uint8) {
		d1 := fuzzDesign("d", s1)
		d2 := fuzzDesign("d", s2)
		if d1 == nil || d2 == nil {
			t.Skip()
		}
		k1 := DesignKey(d1, int(rows1))
		k2 := DesignKey(d2, int(rows2))
		want := sameDesign(d1, d2) && rows1 == rows2
		if got := k1 == k2; got != want {
			t.Fatalf("key collision contract broken: same=%v rows %d/%d but keys equal=%v\nd1: %v gates\nd2: %v gates",
				sameDesign(d1, d2), rows1, rows2, got, len(d1.Gates), len(d2.Gates))
		}
		// Determinism: hashing twice must agree.
		if k1 != DesignKey(d1, int(rows1)) {
			t.Fatal("DesignKey not deterministic")
		}
	})
}

// FuzzYieldWireResume is the wire round trip of a yield resume: for a
// fuzzed seed, die count (1–48 c1355 dies), checkpoint interval (1–8) and
// pick, it streams a study through an in-process fbbd, posts one of the
// emitted YieldCheckpoint lines back verbatim as the resume token, and
// requires the resumed die lines, the later checkpoint lines and the footer
// to equal the tail of the unbroken stream byte for byte.
func FuzzYieldWireResume(f *testing.F) {
	h := New(Options{Workers: 2}).Handler()
	post := func(t *testing.T, body string) [][]byte {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/yield", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d for %s: %s", rec.Code, body, rec.Body.Bytes())
		}
		return bytes.SplitAfter(rec.Body.Bytes(), []byte("\n"))
	}
	f.Add(int64(7), uint8(22), uint8(4), uint8(2))
	f.Add(int64(1), uint8(1), uint8(0), uint8(0))
	f.Add(int64(-3), uint8(47), uint8(7), uint8(200))
	f.Add(int64(42), uint8(9), uint8(1), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, nDies, every, pick uint8) {
		dies := 1 + int(nDies)%48
		study := fmt.Sprintf(`"benchmark":"c1355","dies":%d,"seed":%d,"checkpoint":%d,"workers":2`, dies, seed, 1+int(every)%8)
		full := post(t, "{"+study+"}")
		var ckpts []int // indices of the checkpoint lines in full
		for i, line := range full {
			if bytes.HasPrefix(line, []byte(`{"ckpt":`)) {
				ckpts = append(ckpts, i)
			}
		}
		if len(ckpts) == 0 {
			return // the study ends before its first checkpoint
		}
		at := ckpts[int(pick)%len(ckpts)]
		token := bytes.TrimSuffix(full[at], []byte("\n"))
		resumed := post(t, "{"+study+`,"resume":`+string(token)+"}")
		tail := full[at+1:]
		if len(resumed) != len(tail) {
			t.Fatalf("resume from %s: %d lines, want %d", token, len(resumed), len(tail))
		}
		for i := range tail {
			if !bytes.Equal(resumed[i], tail[i]) {
				t.Fatalf("resume from %s: line %d is\n%s\nwant\n%s", token, i, resumed[i], tail[i])
			}
		}
	})
}
