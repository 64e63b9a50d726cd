package reorder

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"graphmem/internal/gen"
	"graphmem/internal/graph"
)

// applyGoldens pin the relabelled graph of every reordering method on
// a scattered-hub and a clustered-hub dataset, unweighted and weighted.
// Weighted rows with repeated neighbors keep their sort's tie order, so
// these digests also pin that order.
var applyGoldens = map[string]string{
	"kr25/dbg/false":  "7bc430ab5ab2bb07b296f2a4249e072695be06aeb16bf44e0b46dba399733981",
	"kr25/sort/false": "353f9b980e7263fbd54d0d1f1dd4eafb8f809a8fb28c57836d00fd096c2834ef",
	"kr25/rand/false": "60d339236c0ef39e9f749a1ff154bbfff4ef06531a24673af95f4bab2aea686b",
	"kr25/dbg/true":   "8c84238ed9acb718b8e02c15b159a316a65f0e6c00ca875eb618ad4963d5a57b",
	"kr25/sort/true":  "cd0c7a995e54ab2b0921c33bd4214b6c0c8f86bf68fbfee84cf5aa79ad41bd10",
	"kr25/rand/true":  "73168788f51cd0c0d84d486fe19595de8256730eeef51579b4e70e918bc4dff8",
	"twit/dbg/false":  "4cdb90af172374fe28bfeef0b8ca95d217918e4a5f3ba053425b4b55b2088ae7",
	"twit/sort/false": "1e83150d74befe3e7726830978c418b57af2c47b05b8ada4bb92bf4cfcd1d7f2",
	"twit/rand/false": "2f430808ff6def8faaa8a2087682f036aef63fd8a9fa181fa00e3b1b7539c5c9",
	"twit/dbg/true":   "991e5eba0351432df383bb5dd3d5ac964a8cc3ee7316b0967d43be89e24a2b56",
	"twit/sort/true":  "e46ddf11bc8009d138859dc465e56f1c24086cd714796cc69ca952a54983d383",
	"twit/rand/true":  "72d787856db6891c4c54118bc080c2bec141edfda409bbd913f12497d5753eb4",
}

func TestApplyGoldens(t *testing.T) {
	for _, d := range []gen.Dataset{gen.Kron25, gen.Twit} {
		for _, weighted := range []bool{false, true} {
			g := gen.Generate(d, gen.ScaleBench, weighted)
			for _, m := range []Method{DBG, FullSort, Random} {
				ng, _ := Apply(g, m, 7)
				h := sha256.New()
				if err := graph.Write(h, ng); err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%s/%s/%v", d, m, weighted)
				if got := hex.EncodeToString(h.Sum(nil)); got != applyGoldens[name] {
					t.Errorf("%s: digest %s, want %s", name, got, applyGoldens[name])
				}
			}
		}
	}
}
