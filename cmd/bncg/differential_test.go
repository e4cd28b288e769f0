package main

// The GameVariant redesign's compatibility anchor: every surface at the
// default variant must reproduce the pre-variant outputs byte for byte.
// The goldens under testdata/goldens were captured with the last
// pre-variant binary; text reports and store dumps are compared whole,
// JSON payloads field by field (the redesign adds schema_version and
// variant keys — deliberately — and must change nothing else).

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	bncg "repro"
)

func golden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "goldens", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestGoldenSweepTextByteIdentical: the default-variant sweep text report
// (with the exact critical appendix) is byte-identical to the pre-variant
// golden, with and without an explicit empty -variant.
func TestGoldenSweepTextByteIdentical(t *testing.T) {
	want := golden(t, "sweep_n4_exact.txt")
	for _, args := range [][]string{
		{"sweep", "-n", "4", "-workers", "1", "-exact"},
		{"sweep", "-n", "4", "-workers", "1", "-exact", "-variant", ""},
	} {
		out, err := runCLI(t, "", args...)
		if err != nil {
			t.Fatal(err)
		}
		if out != want {
			t.Fatalf("%v diverged from the pre-variant golden:\n--- got ---\n%s\n--- want ---\n%s", args, out, want)
		}
	}
}

// TestGoldenCriticalTextByteIdentical: the default-variant critical-α
// report is byte-identical to the pre-variant golden.
func TestGoldenCriticalTextByteIdentical(t *testing.T) {
	out, err := runCLI(t, "", "critical", "-n", "5", "-workers", "1")
	if err != nil {
		t.Fatal(err)
	}
	if want := golden(t, "critical_n5.txt"); out != want {
		t.Fatalf("critical diverged from the pre-variant golden:\n--- got ---\n%s\n--- want ---\n%s", out, want)
	}
}

// assertCompatibleJSON decodes got and want (a pre-variant golden) and
// requires every golden field to round-trip unchanged; fields that are
// new in got must be in the schema-evolution allowlist. This is the
// compatibility contract of SchemaVersion generation 1: additive only.
func assertCompatibleJSON(t *testing.T, got, want string, allowNew ...string) {
	t.Helper()
	var gotM, wantM map[string]any
	if err := json.Unmarshal([]byte(got), &gotM); err != nil {
		t.Fatalf("new payload is not JSON: %v\n%s", err, got)
	}
	if err := json.Unmarshal([]byte(want), &wantM); err != nil {
		t.Fatalf("golden payload is not JSON: %v", err)
	}
	for k, wv := range wantM {
		gv, ok := gotM[k]
		if !ok {
			t.Errorf("field %q disappeared from the payload", k)
			continue
		}
		if !reflect.DeepEqual(gv, wv) {
			t.Errorf("field %q changed:\n got: %v\nwant: %v", k, gv, wv)
		}
	}
	allowed := map[string]bool{"schema_version": true}
	for _, k := range allowNew {
		allowed[k] = true
	}
	var extra []string
	for k := range gotM {
		if _, old := wantM[k]; !old && !allowed[k] {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		t.Errorf("unexpected new fields %v (schema evolution must be declared here and in sweep.SchemaVersion's history)", extra)
	}
	if sv, ok := gotM["schema_version"].(float64); !ok || int(sv) != bncg.SchemaVersion {
		t.Errorf("schema_version = %v, want %d", gotM["schema_version"], bncg.SchemaVersion)
	}
}

// TestGoldenSweepJSONCompat: the sweep JSON payload keeps every
// pre-variant field byte-compatible and adds only schema_version (the
// variant key is omitted at the default).
func TestGoldenSweepJSONCompat(t *testing.T) {
	out, err := runCLI(t, "", "sweep", "-n", "4", "-workers", "1", "-exact", "-json")
	if err != nil {
		t.Fatal(err)
	}
	assertCompatibleJSON(t, out, golden(t, "sweep_n4_exact.json"))
	if strings.Contains(out, `"variant"`) {
		t.Fatalf("default-variant sweep JSON must omit the variant key:\n%s", out)
	}
}

// TestGoldenCriticalJSONCompat: same contract for the critical payload.
func TestGoldenCriticalJSONCompat(t *testing.T) {
	out, err := runCLI(t, "", "critical", "-n", "4", "-json")
	if err != nil {
		t.Fatal(err)
	}
	assertCompatibleJSON(t, out, golden(t, "critical_n4.json"))
}

// TestGoldenLegacyStoreDump: a store written by the pre-variant binary
// opens under the extended codec and dumps byte-identically — legacy
// frames decode as the default variant and the dump format is unchanged
// for default records.
func TestGoldenLegacyStoreDump(t *testing.T) {
	src := filepath.Join("testdata", "goldens", "store4")
	dir := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	out, err := runCLI(t, "", "store", "dump", "-dir", dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := golden(t, "store4_dump.txt"); out != want {
		t.Fatalf("legacy store dump diverged from the pre-variant golden:\n--- got ---\n%s\n--- want ---\n%s", out, want)
	}
}

// TestVariantCriticalEndToEndStore: the promoted variants produce
// critical-α tables that survive store persistence — a second run, whose
// fresh cache warm-starts from the variant-tagged certificates, reproduces
// the report byte for byte — and their records dump variant-tagged without
// disturbing coexisting default records.
func TestVariantCriticalEndToEndStore(t *testing.T) {
	for _, variant := range []string{"unilateral", "max"} {
		t.Run(variant, func(t *testing.T) {
			dir := t.TempDir()
			out1, err := runCLI(t, "", "critical", "-n", "4", "-variant", variant, "-store", dir)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out1, "variant="+variant) {
				t.Fatalf("critical report does not name its variant:\n%s", out1)
			}
			// A default-variant run into the same store: distinct keys, no
			// conflicts, and a baseline to diff the variant against.
			def, err := runCLI(t, "", "critical", "-n", "4", "-store", dir)
			if err != nil {
				t.Fatal(err)
			}
			if def == out1 {
				t.Fatalf("variant %q reproduced the default-variant thresholds exactly — the descriptor is not reaching the engine:\n%s", variant, out1)
			}
			// Each run owns a fresh cache: the third run can only get its
			// certificates back from the store's variant-tagged frames.
			out2, err := runCLI(t, "", "critical", "-n", "4", "-variant", variant, "-store", dir)
			if err != nil {
				t.Fatal(err)
			}
			if out1 != out2 {
				t.Fatalf("variant critical not byte-stable through persistence:\n--- first ---\n%s\n--- second ---\n%s", out1, out2)
			}
			dump, err := runCLI(t, "", "store", "dump", "-dir", dir)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(dump, "variant="+variant) {
				t.Fatalf("store dump lost the variant tag:\n%s", dump)
			}
		})
	}
}

// TestVariantServeCritical: /v1/critical serves the promoted variants
// end-to-end — the daemon computes, persists and re-serves variant-tagged
// certificates, stamps responses with schema_version and the variant key,
// and keeps the default-variant response distinct.
func TestVariantServeCritical(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out syncWriter
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"serve", "-addr", "127.0.0.1:0", "-store", dir}, strings.NewReader(""), &out)
	}()
	var base string
	for deadline := time.Now().Add(5 * time.Second); ; {
		s := out.String()
		if i := strings.Index(s, "listening on http://"); i >= 0 {
			base = strings.TrimSpace(s[i+len("listening on "):])
			base = strings.Split(base, "\n")[0]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("serve never came up:\n%s", s)
		}
		time.Sleep(10 * time.Millisecond)
	}

	get := func(url string) (int, string) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body)
	}
	type critical struct {
		SchemaVersion int    `json:"schema_version"`
		Variant       string `json:"variant"`
		Critical      []struct {
			Concept string   `json:"concept"`
			Alphas  []string `json:"alphas"`
		} `json:"critical"`
	}
	responses := map[string]critical{}
	for _, variant := range []string{"", "unilateral", "max"} {
		url := base + "/v1/critical?n=4"
		if variant != "" {
			url += "&variant=" + variant
		}
		code, body := get(url)
		if code != 200 {
			t.Fatalf("critical variant=%q: status %d\n%s", variant, code, body)
		}
		var c critical
		if err := json.Unmarshal([]byte(body), &c); err != nil {
			t.Fatalf("critical variant=%q: %v\n%s", variant, err, body)
		}
		if c.SchemaVersion != bncg.SchemaVersion {
			t.Fatalf("critical variant=%q: schema_version %d", variant, c.SchemaVersion)
		}
		if c.Variant != variant {
			t.Fatalf("critical response stamped variant %q, want %q", c.Variant, variant)
		}
		if len(c.Critical) == 0 {
			t.Fatalf("critical variant=%q: no rows\n%s", variant, body)
		}
		responses[variant] = c
	}
	for _, variant := range []string{"unilateral", "max"} {
		if reflect.DeepEqual(responses[variant].Critical, responses[""].Critical) {
			t.Fatalf("variant %q thresholds equal the default's — the parameter is not reaching the engine", variant)
		}
	}
	if code, body := get(base + "/v1/critical?n=4&variant=bogus"); code != 400 {
		t.Fatalf("bogus variant: status %d\n%s", code, body)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve exited non-zero: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not shut down")
	}

	// The variant certificates are durable: the store holds extended
	// frames the dump tags, alongside untagged default records.
	dump, err := runCLI(t, "", "store", "dump", "-dir", dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, variant := range []string{"unilateral", "max"} {
		if !strings.Contains(dump, "variant="+variant) {
			t.Fatalf("daemon did not persist variant=%s certificates:\n%s", variant, dump)
		}
	}
}

// TestVariantFlagErrors: descriptor errors surface at flag-parse time
// with the grammar named, on every subcommand that takes -variant.
func TestVariantFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"sweep", "-n", "4", "-variant", "bogus"},
		{"critical", "-n", "4", "-variant", "bogus"},
		{"serve", "-addr", "127.0.0.1:0", "-variant", "bogus"},
		{"worker", "-dir", t.TempDir(), "-variant", "bogus"},
	} {
		if _, err := runCLI(t, "", args...); err == nil || !strings.Contains(err.Error(), "variant") {
			t.Fatalf("%v: expected a variant parse error, got %v", args, err)
		}
	}
}

// TestWorkerVariantAssertion: worker -variant refuses a fleet whose lease
// table pins a different game.
func TestWorkerVariantAssertion(t *testing.T) {
	dir := t.TempDir()
	if _, err := runCLI(t, "", "fleet", "-dir", dir, "-n", "4", "-plan-only"); err != nil {
		t.Fatal(err)
	}
	_, err := runCLI(t, "", "worker", "-dir", dir, "-variant", "unilateral")
	if err == nil || !strings.Contains(err.Error(), "does not match the fleet grid") {
		t.Fatalf("worker joined a default-variant fleet claiming unilateral: %v", err)
	}
}
