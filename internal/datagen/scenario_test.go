package datagen

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"repro/internal/rdf"
)

// triplesDigest is the SHA-256 of ts as N-Triples lines in the order given:
// Triples() lists a store in dictionary-ID order, so the digest pins the
// order terms were first stated in as well as the set.
func triplesDigest(ts []rdf.Triple) string {
	var buf []byte
	for _, t := range ts {
		buf = append(rdf.AppendTriple(buf, t), '\n')
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// TestScenarioTriplesPinned pins the generator's output — merged, hydrology
// and chemical stores, triples and their order — at what the per-triple
// generator produced.
func TestScenarioTriplesPinned(t *testing.T) {
	for _, c := range []struct {
		seed                int64
		sites               int
		merged, hydro, chem string
	}{
		{1, 450,
			"94b8cf45659f9202385fcde048d28a12dd98bfb7ab27db4a1be1d30f116a0331",
			"2ec9e69db3a4ddc392827c68c5cad91a626860010114f669dd4fc9eb8cf58f52",
			"a35a10b1b760fbb55eafd5bdcf92dc6d7cb15bb815ffb481db980a0eca07c717"},
		{2, 450,
			"a1e78aa8e3f8dd4432f11275818495d662e0e86547f6659ff7c74ec7d2e08247",
			"fedf932dbbfd09bad253accb134593d7c0b14158c2a8ba228d28d5d4e8abee74",
			"c0f3be53c3d3fb3dde277c3a97e8dc865233c4f009e83b20fb7374145a6ffe89"},
		{3, 450,
			"6789b8f158e5fc71189fdef10c6d682aca1431b6174b14200048c17a8c3eda12",
			"74e7c59a854a97a18e1c91d717c5e9d24c1472d23054c87131f7e352a02a2553",
			"b3e992c2b4073d5ea098ec72c5d6577df74150edafd0d848af5f3f6e4ccb454e"},
		{7, 12,
			"a531808875b91b76bf5ad6554fe3403f546cbd00fc99dfca29c04e5feff0bcbd",
			"5eadbc951c7c54e9c5ad93536a5bc9fc132406184239b5507559c50bb56a7e3d",
			"90185e26d31f66590c23db812fc1c21b92998e187731f44fd8dcdfaf21cc8b6a"},
		{7, 3000,
			"7e2258b23e9ed7c5f8cc2ab213d73589fcdd33ab98b407e1708c867a88d0a571",
			"5eadbc951c7c54e9c5ad93536a5bc9fc132406184239b5507559c50bb56a7e3d",
			"d6788f09524335182f6e65ec17efad6e57157f30e89d05ce23f143b5342dcdc6"},
	} {
		sc := NewScenario(ScenarioConfig{Seed: c.seed, Sites: c.sites})
		for _, got := range []struct {
			name string
			ts   []rdf.Triple
			want string
		}{
			{"merged", sc.Merged.Triples(), c.merged},
			{"hydrology", sc.Hydrology.Store.Triples(), c.hydro},
			{"chemical", sc.Chemical.Store.Triples(), c.chem},
		} {
			if d := triplesDigest(got.ts); d != got.want {
				t.Errorf("seed %d, %d sites: %s digest %s, want %s", c.seed, c.sites, got.name, d, got.want)
			}
		}
	}
}

// scenarioBytesPerTriple is what NewScenario allocates per triple it
// generates.
func scenarioBytesPerTriple(sites int) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sc := NewScenario(ScenarioConfig{Seed: 7, Sites: sites})
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(sc.Merged.Len())
}

// maxScenarioBytesPerTriple bounds what NewScenario allocates per triple at
// 3,000 sites: 15% above the 1,480 bytes measured when each dataset became
// one AddAll. Stating each triple with its own Add cost 9,204.
const maxScenarioBytesPerTriple = 1700

// TestScenarioAllocationsLinear: the generator allocates a bounded number of
// bytes per triple it generates, about the same at 3,000 sites as at 450.
func TestScenarioAllocationsLinear(t *testing.T) {
	small, large := scenarioBytesPerTriple(450), scenarioBytesPerTriple(3000)
	t.Logf("bytes per triple: %.0f at 450 sites, %.0f at 3,000", small, large)
	if large > maxScenarioBytesPerTriple {
		t.Errorf("%.0f bytes per triple at 3,000 sites, want ≤ %d", large, maxScenarioBytesPerTriple)
	}
	if large > 1.1*small {
		t.Errorf("%.0f bytes per triple at 3,000 sites is more than 1.1× the %.0f at 450", large, small)
	}
}
