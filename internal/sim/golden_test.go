package sim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"repro/internal/dynamics"
	"repro/internal/game"
)

// goldenDigests pins every golden batch's output: the SHA-256 of its
// Report() followed by the JSON of its trajectories. Engine changes that
// only alter how a probe's verdict is computed must leave every digest
// unchanged; a change that alters any trajectory must update this table
// deliberately.
var goldenDigests = map[string]string{
	"breakpoint/default":    "c3bb355fa21b24997d9fdcea84330d48de8cd2f664d50fb77a424af89b5e888c",
	"breakpoint/max":        "10855d1993715e5319dc8b34d969fd05e7f0b432274db4124cdee577c5864e17",
	"breakpoint/mul":        "680f3cb17ea18d80f5476a8363d8440e0c9dcb25d9afcf535bce744d7cd45c66",
	"breakpoint/unilateral": "01f91cf868cc1ecbdb7958d12f02b9eace393aec4a37b315d33f74bea861c686",
	"roundrobin/default":    "41056793d6747b702828b5d499e9d156b4129b33d1cce2a20b8bb4d602282719",
	"roundrobin/max":        "f444d365600f12c07e026ff87afc75c2f7999f2a97fb7ab9470fa0f65f30cd78",
	"roundrobin/mul":        "c221ab243738733aa6425022972f697e7a83eb3e7f227be64307c50218dd9701",
	"roundrobin/unilateral": "15d8d559bb2843498aa9674ea102049f1625210266ef2b4b72657237b70db177",
	"uniform/default":       "4e6c5e05833e11cf569d00d5bc9a20371502f235270ca0dc77610aebbad0eb53",
	"uniform/default/n70":   "a2f9d3231fb8cb5d3c097839e4fd083917acfdbd406b7a37cceec9e04a48c410",
	"uniform/max":           "5b658f0ac2831ac834d5d13c3b8933c62f760877c396e1abc76c48a2647013ce",
	"uniform/mul":           "2271250f79c915599be1cfa075c30c207cae6e90667815ccbaad4e346f1af7eb",
	"uniform/unilateral":    "2c979579f11b9e288c013edb4a4f67c0d19edda421d4e453d2c421f9ef4cbf2d",
}

// goldenBatches covers every scheduler × every variant axis the engine
// special-cases, on the full {Remove, Add, Swap} move set, plus one PS
// batch whose distance rows span two bitset words (n > 64).
func goldenBatches(t *testing.T) map[string]Options {
	t.Helper()
	variants := map[string]string{
		"default":    "",
		"max":        "max",
		"mul":        "mul:0=3/2,mul:9=1/2",
		"unilateral": "unilateral",
	}
	scheds := []dynamics.Scheduler{dynamics.SchedulerUniform, dynamics.SchedulerRoundRobin, dynamics.SchedulerBreakpoint}
	out := map[string]Options{}
	for vname, desc := range variants {
		v, err := game.ParseVariant(desc)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range scheds {
			out[s.String()+"/"+vname] = Options{
				N:            14,
				Alphas:       []game.Alpha{game.AFrac(1, 2), game.A(2), game.AFrac(9, 2), game.A(40)},
				Trajectories: 3,
				Kinds:        []dynamics.Kind{dynamics.RemoveKind, dynamics.AddKind, dynamics.SwapKind},
				Scheduler:    s,
				MaxSteps:     300,
				Seed:         2024,
				Workers:      1,
				Variant:      v,
			}
		}
	}
	out["uniform/default/n70"] = Options{
		N:            70,
		Alphas:       []game.Alpha{game.A(2), game.A(100)},
		Trajectories: 2,
		MaxSteps:     800,
		Seed:         2024,
		Workers:      1,
	}
	return out
}

// TestGoldenTrajectoryDigest: the simulate workload's trajectories are
// byte-identical to the pinned digests across schedulers, move families
// and game variants.
func TestGoldenTrajectoryDigest(t *testing.T) {
	for name, opts := range goldenBatches(t) {
		res, err := Run(context.Background(), opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		items, err := json.Marshal(res.Items)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		h.Write([]byte(res.Report()))
		h.Write(items)
		got := hex.EncodeToString(h.Sum(nil))
		if want := goldenDigests[name]; got != want {
			t.Errorf("%s: digest %s, want %s\n%s", name, got, want, res.Report())
		}
	}
}
