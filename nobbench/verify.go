package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
)

// goldenSchema tags golden.json; bump when the digest definition changes.
const goldenSchema = "nobbench/golden/v1"

// goldenFile maps request keys (request.key) to their expected answers.
type goldenFile struct {
	Schema  string                 `json:"schema"`
	Entries map[string]goldenEntry `json:"entries"`
}

type goldenEntry struct {
	// Digest covers document.experiments of the block engine's answer.
	Digest string `json:"digest"`
	// CoreDigest is the digest without the peak-entries note (coreDigest).
	CoreDigest string `json:"core_digest"`
	// Cache holds the pair-order-free facts of a kind "cache" answer.
	Cache *cacheFacts `json:"cache,omitempty"`
}

// cacheFacts are the values of an ideal-cache miss curve that do not
// depend on the order of message pairs within a superstep.
type cacheFacts struct {
	Rows       int     `json:"rows"`
	M          []int64 `json:"m"`
	B          []int64 `json:"b"`
	Accesses   int64   `json:"accesses"`
	Compulsory int64   `json:"compulsory"`
}

func loadGolden(path string) (*goldenFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var g goldenFile
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if g.Schema != goldenSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, g.Schema, goldenSchema)
	}
	return &g, nil
}

// answer is a decoded analyze reply reduced to what the checks compare.
type answer struct {
	cached     bool
	digest     string
	coreDigest string
	raw        json.RawMessage // document.experiments
}

// peakNotePrefix starts the note a matmul-family trace answer carries
// when the program body ran.  A warm replay-engine run skips the body,
// so its answer lacks the note: a known engine difference, counted by
// the verifier rather than failed.
const peakNotePrefix = "peak per-VP matrix entries:"

// coreDigest digests the experiments without any peak-entries note, in
// a canonical re-encoding (sorted keys, empty note lists dropped).
func coreDigest(experiments json.RawMessage) (string, error) {
	var v any
	if err := json.Unmarshal(experiments, &v); err != nil {
		return "", err
	}
	exps, _ := v.([]any)
	for _, e := range exps {
		em, _ := e.(map[string]any)
		results, _ := em["results"].([]any)
		for _, r := range results {
			rm, _ := r.(map[string]any)
			notes, _ := rm["notes"].([]any)
			kept := notes[:0]
			for _, n := range notes {
				if s, ok := n.(string); !ok || !strings.HasPrefix(s, peakNotePrefix) {
					kept = append(kept, n)
				}
			}
			if len(kept) == 0 {
				delete(rm, "notes")
			} else {
				rm["notes"] = kept
			}
		}
	}
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// decodeAnswer canonicalizes a reply: the digest covers only
// document.experiments, compacted, so the engine name, the cached flag,
// job and request ids never enter it.
func decodeAnswer(body []byte) (answer, error) {
	var r response
	if err := json.Unmarshal(body, &r); err != nil {
		return answer{}, fmt.Errorf("decode reply: %w", err)
	}
	if r.Status != "done" || r.Document == nil || len(r.Document.Experiments) == 0 {
		return answer{}, fmt.Errorf("reply status %q without a document (error %q)", r.Status, r.Error)
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, r.Document.Experiments); err != nil {
		return answer{}, fmt.Errorf("compact experiments: %w", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	core, err := coreDigest(buf.Bytes())
	if err != nil {
		return answer{}, fmt.Errorf("canonicalize experiments: %w", err)
	}
	return answer{cached: r.Cached, digest: hex.EncodeToString(sum[:]), coreDigest: core, raw: buf.Bytes()}, nil
}

// cell is one numeric cell of a result row.
type cell struct {
	I *int64   `json:"i"`
	F *float64 `json:"f"`
}

// cacheFactsOf extracts the order-free facts of a miss-curve answer and
// checks the curve against the analysis's own invariants.
func cacheFactsOf(experiments json.RawMessage) (cacheFacts, error) {
	var exps []struct {
		Results []struct {
			Rows [][]cell `json:"rows"`
		} `json:"results"`
	}
	if err := json.Unmarshal(experiments, &exps); err != nil {
		return cacheFacts{}, fmt.Errorf("decode cache rows: %w", err)
	}
	if len(exps) != 1 || len(exps[0].Results) != 1 || len(exps[0].Results[0].Rows) == 0 {
		return cacheFacts{}, fmt.Errorf("cache answer is not one non-empty result")
	}
	rows := exps[0].Results[0].Rows
	f := cacheFacts{Rows: len(rows), Accesses: -1}
	misses := make([]int64, len(rows))
	for i, row := range rows {
		if len(row) != 4 || row[0].I == nil || row[1].I == nil || row[2].I == nil || row[3].F == nil {
			return cacheFacts{}, fmt.Errorf("cache row %d is not (M, B, misses, rate)", i)
		}
		f.M = append(f.M, *row[0].I)
		f.B = append(f.B, *row[1].I)
		misses[i] = *row[2].I
		// The rate is misses/accesses, so every row with a miss restates
		// the access count; they must agree.
		if rate := *row[3].F; misses[i] > 0 && rate > 0 {
			acc := int64(math.Round(float64(misses[i]) / rate))
			if f.Accesses >= 0 && acc != f.Accesses {
				return cacheFacts{}, fmt.Errorf("cache rows disagree on the access count: %d vs %d", f.Accesses, acc)
			}
			f.Accesses = acc
		}
	}
	if !slices.IsSorted(f.M) {
		return cacheFacts{}, fmt.Errorf("cache sizes M %v are not ascending", f.M)
	}
	f.Compulsory = misses[len(misses)-1]
	return f, checkMissCurve(misses, f.Accesses)
}

// checkMissCurve enforces the miss-curve invariants: misses never grow
// with M (LRU inclusion), and every size misses at least the compulsory
// misses of the largest size and at most once per access.
func checkMissCurve(misses []int64, accesses int64) error {
	if len(misses) == 0 {
		return fmt.Errorf("empty miss curve")
	}
	compulsory := misses[len(misses)-1]
	for i, m := range misses {
		if i > 0 && m > misses[i-1] {
			return fmt.Errorf("misses grow with M at row %d: %d > %d", i, m, misses[i-1])
		}
		if m < compulsory {
			return fmt.Errorf("row %d misses %d below the compulsory %d", i, m, compulsory)
		}
		if accesses >= 0 && m > accesses {
			return fmt.Errorf("row %d misses %d exceed the %d accesses", i, m, accesses)
		}
	}
	return nil
}

// verifier checks replies against the golden set.
type verifier struct {
	golden *goldenFile
}

// mismatch classifies a reply that passed verification.
type mismatch int

const (
	exact mismatch = iota
	// cacheOrder: a cache answer that passes every order-free check but
	// whose full digest differs from the golden, the visible trace of
	// the pair-order defect: reported, never hidden.
	cacheOrder
	// peakNote: an answer equal to the golden except for a missing
	// peak-entries note (warm replay runs), reported likewise.
	peakNote
)

// check verifies one reply to req.
func (v *verifier) check(req request, body []byte) (answer, mismatch, error) {
	a, err := decodeAnswer(body)
	if err != nil {
		return a, exact, err
	}
	want, ok := v.golden.Entries[req.key()]
	if !ok {
		return a, exact, fmt.Errorf("no golden answer for %s", req.key())
	}
	if req.Kind != "cache" {
		switch {
		case a.digest == want.Digest:
			return a, exact, nil
		case a.coreDigest == want.CoreDigest && want.CoreDigest != want.Digest:
			return a, peakNote, nil
		}
		return a, exact, fmt.Errorf("digest mismatch for %s", req.key())
	}
	got, err := cacheFactsOf(a.raw)
	if err != nil {
		return a, exact, fmt.Errorf("%s: %w", req.key(), err)
	}
	if want.Cache == nil || !sameFacts(got, *want.Cache) {
		return a, exact, fmt.Errorf("cache facts mismatch for %s: got %+v want %+v", req.key(), got, want.Cache)
	}
	if a.digest != want.Digest {
		return a, cacheOrder, nil
	}
	return a, exact, nil
}

func sameFacts(a, b cacheFacts) bool {
	return a.Rows == b.Rows && slices.Equal(a.M, b.M) && slices.Equal(a.B, b.B) &&
		a.Accesses == b.Accesses && a.Compulsory == b.Compulsory
}
