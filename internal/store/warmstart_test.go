package store_test

import (
	"testing"

	"repro/internal/game"
	"repro/internal/store"
	"repro/internal/sweep"
)

// TestWarmStartSkipsOverflowInvertedCertificate: a segment frame holding
// the interval [2^62, 2^62/3] — inverted, though its int64 cross products
// overflow into looking ordered — never reaches a sweep cache. The store
// refuses it at open, and WarmStart serves only the valid certificate
// framed before it. The test lives in an external package because sweep
// imports store.
func TestWarmStartSkipsOverflowInvertedCertificate(t *testing.T) {
	dir, good, _ := store.OverflowInvertedStore(t)
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cache := sweep.NewCache()
	if loaded := cache.WarmStart(st); loaded != 1 {
		t.Fatalf("warm-started %d certificates, want only the valid one", loaded)
	}
	if set, ok := cache.GetCert(store.CertKey{Canon: "bad", Concept: good.Concept}); ok {
		t.Fatalf("cache serves the inverted certificate %s", set)
	}
	set, ok := cache.GetCert(good.Key())
	if !ok || !set.Equal(good.Set) || !set.Contains(game.A(1<<61)) || set.Contains(game.A(1<<62+1)) {
		t.Fatalf("valid certificate at the codec cap: ok=%v %s", ok, set)
	}
}
