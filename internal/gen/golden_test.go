package gen

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"graphmem/internal/graph"
)

// digest is the SHA-256 of g's CSR arrays in the GMG1 container
// format.
func digest(t *testing.T, g *graph.Graph) string {
	t.Helper()
	h := sha256.New()
	if err := graph.Write(h, g); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// datasetGoldens pin every dataset at the test and bench scales,
// unweighted and weighted. They were recorded from the sequential
// single-stream generators, so they hold the split-stream generators to
// the same bytes.
var datasetGoldens = map[string]string{
	"kr25/test/false":  "b9b8cd9492d57725bcc55e4ffc425a1966fd95748e189a538fce9c0efbc31c7c",
	"kr25/test/true":   "9024b515e887fc331f1473f87e58bdbf27980873020e87b97818e068e01200eb",
	"twit/test/false":  "574ee6a37929603e221d975b4bf9161f92022f286856bd716cdc98c9207cd440",
	"twit/test/true":   "4c32b4d6aa9d61823f30281ef12a66856d9457d5a349de87fadda4f9030f9aba",
	"web/test/false":   "bcf1f10aa884e42b7fa96ce6f08f6709284430185d7c0a31a84ddd3f5dea12a5",
	"web/test/true":    "d0d1d150d2be7b57b0a05029740aa23536e2a617e14bcb59c10361f66258337a",
	"wiki/test/false":  "5b1190aa5b79e2eb615409550aa00dadffe74a6163e895b1e0991d5499e67ceb",
	"wiki/test/true":   "83145e7f7bd3c5cfe8440a8b9cf6ecd40a404475585d14d08360929a9c4e49e3",
	"kr25/bench/false": "8aeb87026cca00fbeb6700d7e11d87a7046b93904cbc30debb60a78cb5e14ec4",
	"kr25/bench/true":  "65b3cb7c5695678bdce6319564bea82251a7433e036d9fa6bc98526447f60056",
	"twit/bench/false": "775a5c8591837f5c85129686e6e82dea851951807fae70922964d7cbb68cb29e",
	"twit/bench/true":  "e5efdcdfeb4cbb1da2c5c09c779702804b3971dc8ae89d500677c77cb1da56fd",
	"web/bench/false":  "ffd8fb609a58dd10398261941b60d9f921e1dff91df5d31b1f24f09ab1b8bd12",
	"web/bench/true":   "cca914a3bafc646053b5ac7baec2c4a382cb78939a12b5b7a317000d949754a2",
	"wiki/bench/false": "dd2e787645bab4304025c867fb9a95bc77891a28bb948725fef5e5ccfc8bacb2",
	"wiki/bench/true":  "d3b36083821c76b2d40073ef4e04e85a00f7c71469421e5c61b57b2024a1861a",
}

func TestDatasetGoldens(t *testing.T) {
	for _, s := range []Scale{ScaleTest, ScaleBench} {
		for _, d := range AllDatasets {
			for _, weighted := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/%v", d, []string{"test", "bench"}[s], weighted)
				if got := digest(t, Generate(d, s, weighted)); got != datasetGoldens[name] {
					t.Errorf("%s: digest %s, want %s", name, got, datasetGoldens[name])
				}
			}
		}
	}
}

// TestNodeShapeGoldens pins the two graphs the benchmark's paper-node
// workload generates at its bench size and seed 1.
func TestNodeShapeGoldens(t *testing.T) {
	for _, c := range []struct {
		name, want string
		g          func() *graph.Graph
	}{
		{"kr25", "0c5e0ff19049ebac06a13b4c111edd71f3d9a90afb647e759517d81099a97ad3", func() *graph.Graph { return Kronecker(16, 12, false, 0, 1) }},
		{"twit", "db71993002e8b7d44ba1a3a2f10e9321be6198199a5ada6225122467daf65718", func() *graph.Graph {
			return PowerLaw(PowerLawConfig{N: 80_000, AvgDegree: 12, Alpha: 0.75, HubsClustered: true, Seed: 1})
		}},
	} {
		if got := digest(t, c.g()); got != c.want {
			t.Errorf("%s: digest %s, want %s", c.name, got, c.want)
		}
	}
}
