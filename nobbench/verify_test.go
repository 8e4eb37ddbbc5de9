package main

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

const experiments = `[{"id":"cache","title":"t","paper_ref":"","results":[{"id":"cache","title":"t","paper_ref":"r","columns":["M (words)","B (words)","misses","miss rate"],"rows":[[{"i":256},{"i":8},{"i":50},{"f":0.5}],[{"i":1024},{"i":8},{"i":30},{"f":0.3}],[{"i":4096},{"i":8},{"i":10},{"f":0.1}]]}]}]`

func reply(engine string, cached bool, extra string) []byte {
	return []byte(fmt.Sprintf(`{"schema":"nobld/response/v1","status":"done","cached":%v,%s"document":{"schema":"nobl/results/v1","quick":false,"engine":%q,
	  "experiments": %s}}`, cached, extra, engine, experiments))
}

// The digest covers document.experiments only: engine, cached flag, job
// and request ids and whitespace never change it.
func TestDigestIgnoresEngineAndCached(t *testing.T) {
	a, err := decodeAnswer(reply("block", false, ""))
	if err != nil {
		t.Fatal(err)
	}
	b, err := decodeAnswer(reply("replay", true, `"job":"j-42","request_id":"r-7",`))
	if err != nil {
		t.Fatal(err)
	}
	if a.digest != b.digest || a.cached || !b.cached {
		t.Errorf("digests %s vs %s (cached %v/%v)", a.digest, b.digest, a.cached, b.cached)
	}
	c, err := decodeAnswer([]byte(strings.Replace(string(reply("block", false, "")), `{"i":30}`, `{"i":31}`, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if c.digest == a.digest {
		t.Error("a changed cell must change the digest")
	}
	if _, err := decodeAnswer([]byte(`{"status":"failed","error":"boom"}`)); err == nil {
		t.Error("a reply without a document must not verify")
	}
}

func TestCacheFacts(t *testing.T) {
	f, err := cacheFactsOf(json.RawMessage(experiments))
	if err != nil {
		t.Fatal(err)
	}
	want := cacheFacts{Rows: 3, M: []int64{256, 1024, 4096}, B: []int64{8, 8, 8}, Accesses: 100, Compulsory: 10}
	if !sameFacts(f, want) {
		t.Errorf("facts %+v, want %+v", f, want)
	}
}

// The invariant checker rejects a miss curve that grows with M, one that
// dips below the compulsory misses, and one above the access count.
func TestMissCurveInvariants(t *testing.T) {
	for _, c := range []struct {
		misses   []int64
		accesses int64
		ok       bool
	}{
		{[]int64{50, 30, 10}, 100, true},
		{[]int64{50, 30, 30}, 100, true},
		{[]int64{50, 60, 10}, 100, false}, // non-monotone
		{[]int64{50, 5, 10}, 100, false},  // below compulsory, and non-monotone
		{[]int64{150, 30, 10}, 100, false},
		{nil, 100, false},
	} {
		if err := checkMissCurve(c.misses, c.accesses); (err == nil) != c.ok {
			t.Errorf("checkMissCurve(%v, %d) = %v, want ok=%v", c.misses, c.accesses, err, c.ok)
		}
	}
	bad := strings.Replace(experiments, `{"i":30}`, `{"i":70}`, 1)
	if _, err := cacheFactsOf(json.RawMessage(bad)); err == nil {
		t.Error("cacheFactsOf accepted a non-monotone curve")
	}
}

func TestVerifierCountsOrderMismatches(t *testing.T) {
	req := request{Kind: "cache", Algorithm: "fft", N: 64}
	a, err := decodeAnswer(reply("block", false, ""))
	if err != nil {
		t.Fatal(err)
	}
	facts, _ := cacheFactsOf(a.raw)
	v := &verifier{golden: &goldenFile{Entries: map[string]goldenEntry{req.key(): {Digest: "other", Cache: &facts}}}}
	if _, mm, err := v.check(req, reply("replay", false, "")); err != nil || mm != cacheOrder {
		t.Fatalf("check = %v, %v; want a counted cache-order mismatch", mm, err)
	}
	req.Kind = "trace"
	v.golden.Entries[req.key()] = goldenEntry{Digest: "other"}
	if _, _, err := v.check(req, reply("block", false, "")); err == nil {
		t.Error("a trace answer with a foreign digest must fail")
	}
}

// A warm replay answer that lacks only the peak-entries note is counted,
// not failed; any other difference still fails.
func TestVerifierCountsPeakNoteMismatches(t *testing.T) {
	withNote := `{"status":"done","document":{"engine":"block","experiments":[{"id":"trace","results":[{"id":"trace","rows":[[{"i":2}]],"notes":["peak per-VP matrix entries: 46"]}]}]}}`
	without := strings.Replace(withNote, `,"notes":["peak per-VP matrix entries: 46"]`, "", 1)
	other := strings.Replace(withNote, `peak per-VP matrix entries: 46`, `skipped machines`, 1)
	g, err := decodeAnswer([]byte(withNote))
	if err != nil {
		t.Fatal(err)
	}
	req := request{Kind: "trace", Algorithm: "matmul", N: 256}
	v := &verifier{golden: &goldenFile{Entries: map[string]goldenEntry{req.key(): {Digest: g.digest, CoreDigest: g.coreDigest}}}}
	for body, want := range map[string]mismatch{withNote: exact, without: peakNote} {
		if _, mm, err := v.check(req, []byte(body)); err != nil || mm != want {
			t.Fatalf("check = %v, %v; want %v", mm, err, want)
		}
	}
	if _, _, err := v.check(req, []byte(other)); err == nil {
		t.Error("an answer with a different note must fail")
	}
}
