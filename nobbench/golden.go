package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// writeGolden answers every request the workloads can generate on two
// fresh daemons, one per engine, and writes the digests only if the
// block and replay engines agree: byte-for-byte on the deterministic
// kinds, and on the pair-order-free facts of kind "cache".  The stored
// full cache digest is the block engine's.
func writeGolden(cfg *config, nobld, path string) error {
	blockD, err := startDaemon(nobld, 0, cfg.DaemonFlags, "")
	if err != nil {
		return err
	}
	defer blockD.stop()
	replayD, err := startDaemon(nobld, 0, cfg.DaemonFlags, "")
	if err != nil {
		return err
	}
	defer replayD.stop()
	blockC, replayC := newClient(blockD.base, 1), newClient(replayD.base, 1)
	defer blockC.close()
	defer replayC.close()

	g := goldenFile{Schema: goldenSchema, Entries: map[string]goldenEntry{}}
	var disagree []string
	keys := cfg.keySpace()
	for i, req := range keys {
		var ans [2]answer
		for j, eng := range []string{"block", "replay"} {
			c := blockC
			if eng == "replay" {
				c = replayC
			}
			req.Engine = eng
			body, err := c.analyze(req)
			if err != nil {
				return fmt.Errorf("%s on %s: %w", req.key(), eng, err)
			}
			if ans[j], err = decodeAnswer(body); err != nil {
				return fmt.Errorf("%s on %s: %w", req.key(), eng, err)
			}
		}
		e := goldenEntry{Digest: ans[0].digest, CoreDigest: ans[0].coreDigest}
		if req.Kind == "cache" {
			var facts [2]cacheFacts
			for j := range ans {
				if facts[j], err = cacheFactsOf(ans[j].raw); err != nil {
					return fmt.Errorf("%s: %w", req.key(), err)
				}
			}
			if !sameFacts(facts[0], facts[1]) {
				disagree = append(disagree, fmt.Sprintf("%s: cache facts %+v (block) vs %+v (replay)", req.key(), facts[0], facts[1]))
			}
			e.Cache = &facts[0]
		} else if ans[0].digest != ans[1].digest {
			disagree = append(disagree, req.key()+": block and replay answers differ")
		}
		g.Entries[req.key()] = e
		fmt.Fprintf(os.Stderr, "golden %d/%d %s\n", i+1, len(keys), req.key())
	}
	if len(disagree) > 0 {
		return fmt.Errorf("refusing to write %s: engines disagree on %d requests:\n%s", path, len(disagree), strings.Join(disagree, "\n"))
	}
	b, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
