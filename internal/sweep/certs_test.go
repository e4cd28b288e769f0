package sweep

import (
	"math/big"
	"slices"
	"strings"
	"testing"

	"repro/internal/eq"
	"repro/internal/game"
)

// denseGrid returns a G-point α grid k/2 for k = 1..G.
func denseGrid(g int) []game.Alpha {
	out := make([]game.Alpha, g)
	for k := 1; k <= g; k++ {
		out[k-1] = game.AFrac(int64(k), 2)
	}
	return out
}

// TestSweepGridDensityInvariant pins the O(1)-per-α structure of the
// certificate engine without timing anything: a 16× denser grid over the
// same classes computes exactly the same number of certificates, reports
// identical critical breakpoints, and agrees verdict-for-verdict on the
// shared α values.
func TestSweepGridDensityInvariant(t *testing.T) {
	base := Options{N: 4, Concepts: eq.Concepts(), Workers: 4}
	sparseOpts, denseOpts := base, base
	sparseOpts.Alphas, sparseOpts.Cache = denseGrid(4), NewCache()
	denseOpts.Alphas, denseOpts.Cache = denseGrid(64), NewCache()
	sparse := mustRun(t, sparseOpts)
	dense := mustRun(t, denseOpts)

	if sparse.Certified != dense.Certified {
		t.Errorf("certificates computed: %d at G=4 vs %d at G=64; want identical",
			sparse.Certified, dense.Certified)
	}
	if want := int64(sparse.Graphs * len(sparse.Concepts)); sparse.Certified != want {
		t.Errorf("certified %d, want one per (class, concept) = %d", sparse.Certified, want)
	}
	// The sparse grid is a prefix of the dense one: verdict vectors on the
	// shared α values must match.
	for ai := range sparseOpts.Alphas {
		for gi := 0; gi < sparse.Graphs; gi++ {
			sv := sparse.Items[ai*sparse.Graphs+gi].Vector
			dv := dense.Items[ai*dense.Graphs+gi].Vector
			if sv != dv {
				t.Errorf("α=%s class %d: G=4 vector %09b != G=64 vector %09b",
					sparseOpts.Alphas[ai], gi, sv, dv)
			}
		}
	}
	// Critical structure is a property of the classes, not the grid.
	if got, want := sparse.CriticalReport(), dense.CriticalReport(); got != want {
		t.Errorf("critical reports differ across grid density:\n%s\nvs\n%s", got, want)
	}
	if sparse.CriticalReport() == "" || !strings.Contains(sparse.CriticalReport(), "breakpoints") {
		t.Errorf("critical report empty or malformed:\n%s", sparse.CriticalReport())
	}
}

// TestSweepCertsAnswerItems: every grid verdict in Items is exactly the
// certificate's answer at that α — the certificates in Result.Certs are
// the authoritative parametric object the grid was read off of.
func TestSweepCertsAnswerItems(t *testing.T) {
	res := mustRun(t, latticeOptions(4, 4, NewCache()))
	if len(res.Certs) != res.Graphs*len(res.Concepts) {
		t.Fatalf("%d certificates for %d classes × %d concepts",
			len(res.Certs), res.Graphs, len(res.Concepts))
	}
	for _, it := range res.Items {
		for ci := range res.Concepts {
			if got, want := it.Vector.Stable(ci), res.Cert(it.GraphIndex, ci).Contains(res.Alphas[it.AlphaIndex]); got != want {
				t.Errorf("α=%s class %d %s: vector bit %v != certificate %v",
					res.Alphas[it.AlphaIndex], it.GraphIndex, res.Concepts[ci], got, want)
			}
		}
	}
}

// TestSweepCriticalDeterministic: the critical report is identical across
// worker counts and cache states, like every other sweep output.
func TestSweepCriticalDeterministic(t *testing.T) {
	one := mustRun(t, latticeOptions(4, 1, NewCache()))
	cache := NewCache()
	cold := mustRun(t, latticeOptions(4, 8, cache))
	warm := mustRun(t, latticeOptions(4, 8, cache))
	for _, other := range []*Result{cold, warm} {
		if got, want := other.CriticalReport(), one.CriticalReport(); got != want {
			t.Errorf("critical reports differ:\n%s\nvs\n%s", got, want)
		}
	}
	if len(warm.Critical) != len(warm.Concepts) {
		t.Fatalf("%d critical entries for %d concepts", len(warm.Critical), len(warm.Concepts))
	}
	// The K4 class flips RE at α=1: the RE row must report breakpoint 1.
	found := false
	for _, a := range warm.Critical[0].Alphas {
		if a == game.A(1) {
			found = true
		}
	}
	if warm.Critical[0].Concept != eq.RE || !found {
		t.Errorf("RE critical row %v misses the clique breakpoint α=1", warm.Critical[0])
	}
}

// TestCriticalAtInt64Breakpoints: price multipliers near 2^62 put
// breakpoints where a midpoint probe's int64 products or a
// cross-multiplied sort overflow: 1/2^62 under mul:0=2^62 at n=3, and 2/m
// and 4/m with m = 2^62−1 under mul:0=m/2 at n=4. The breakpoints must
// come out strictly increasing under the exact comparison, and every
// region's verdict must equal the certificate's verdict at a price inside
// it, found in math/big.
func TestCriticalAtInt64Breakpoints(t *testing.T) {
	for _, tc := range []struct {
		n       int
		variant string
	}{
		{3, "mul:0=4611686018427387904/1"},
		{4, "mul:0=4611686018427387903/2"},
		// The largest denominator ValidateVariant admits at n=4: agent
		// 0's scaled distance deltas reach 6·q, just inside int64.
		{4, "mul:0=1/1537228672809129301"},
	} {
		v, err := game.ParseVariant(tc.variant)
		if err != nil {
			t.Fatal(err)
		}
		res := mustRun(t, Options{
			N:        tc.n,
			Alphas:   []game.Alpha{game.A(1)},
			Concepts: []eq.Concept{eq.RE, eq.PS},
			Variant:  v,
			Workers:  1,
		})
		if res.CriticalReport() == "" {
			t.Fatalf("%s: no critical report", tc.variant)
		}
		for ci, cc := range res.Critical {
			bps := cc.Alphas
			for i := 1; i < len(bps); i++ {
				if ratOf(bps[i-1]).Cmp(ratOf(bps[i])) >= 0 {
					t.Fatalf("%s %s: breakpoints out of order: %v", tc.variant, cc.Concept, bps)
				}
			}
			for _, reg := range regionsOf(bps) {
				probe := reg.at
				if reg.open {
					probe = priceAbove(t, reg.at, bps)
				}
				for gi := 0; gi < res.Graphs; gi++ {
					if cert := res.Cert(gi, ci); reg.in(cert) != cert.Contains(probe) {
						t.Errorf("%s %s region %s: verdict %v, but %v at %s in %s",
							tc.variant, cc.Concept, reg.label, reg.in(cert), !reg.in(cert), probe, cert)
					}
				}
			}
		}
	}
}

func ratOf(a game.Alpha) eq.Rat { return eq.Rat{Num: a.Num(), Den: a.Den()} }

// priceAbove returns a price strictly between at and the next breakpoint
// above it (or past at when none is): the mediant of the two ends, or
// at+1, computed in math/big and required to fit int64.
func priceAbove(t *testing.T, at game.Alpha, bps []game.Alpha) game.Alpha {
	t.Helper()
	num, den := big.NewInt(at.Num()), big.NewInt(at.Den())
	i := slices.IndexFunc(bps, func(b game.Alpha) bool { return ratOf(b).Cmp(ratOf(at)) > 0 })
	if i < 0 {
		num.Add(num, den)
	} else {
		num.Add(num, big.NewInt(bps[i].Num()))
		den.Add(den, big.NewInt(bps[i].Den()))
	}
	if !num.IsInt64() || !den.IsInt64() {
		t.Fatalf("no int64 price found above %s", at)
	}
	return game.AFrac(num.Int64(), den.Int64())
}
