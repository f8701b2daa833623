// blchaos is the deterministic chaos driver for blserve: it spawns a
// real server process, replays a seeded schedule of traffic, fault
// injection (via the server's -chaos-admin /debug endpoints), hard
// kills, and restarts, and asserts the durability invariants — no torn
// snapshots, warm restarts, exclusive responses, and corruption
// counted instead of fatal. See internal/chaos for the invariants.
//
// With -cluster it instead drives the replicated-serving scenario:
// N blserve replicas behind a real blgate, one SIGKILLed mid-load, one
// stalled through its faultpoints, then all killed for the brownout
// drill — asserting zero client-visible 5xx while any replica is
// healthy, winning hedges against the stall, a held retry budget, and
// degraded stale answers once the whole cluster is down.
//
// With -tenants it drives the multi-tenant fairness scenario: three
// blserve -tenants replicas behind a rendezvous-routing blgate, with a
// hog tenant flooding at 10x its quota next to two well-behaved
// tenants — asserting the polite tenants stay at their baseline
// completion rate with zero errors while the hog is shed with
// quota_exceeded pass-throughs, and that SIGKILLing one replica remaps
// only its ~1/N slice of the key space while surviving keys stay
// cache-warm on their owners.
//
// Usage:
//
//	blchaos [-bin PATH] [-seed 1] [-duration 30s] [-hit-floor 0.5]
//	        [-state-dir DIR] [-v]
//	blchaos -cluster [-bin PATH] [-gate-bin PATH] [-replicas 3]
//	        [-seed 1] [-duration 30s] [-v]
//	blchaos -tenants [-bin PATH] [-gate-bin PATH] [-seed 1] [-v]
//
// With no -bin (or -gate-bin with -cluster or -tenants), blchaos builds
// the missing binaries from the enclosing module. The JSON report goes
// to stdout; the exit status is non-zero when any invariant was
// violated. A failing schedule replays with its -seed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"ballarus/internal/chaos"
	"ballarus/internal/cli"
)

func main() {
	bin := flag.String("bin", "", "blserve binary to drive (default: build cmd/blserve)")
	seed := flag.Int64("seed", 1, "schedule seed; a failing run replays with the same seed")
	duration := flag.Duration("duration", 30*time.Second, "soak length (drills run after)")
	hitFloor := flag.Float64("hit-floor", 0.5, "minimum warm-hit fraction required after a restart")
	stateDir := flag.String("state-dir", "", "server state directory (default: a temp dir, removed afterwards)")
	clusterMode := flag.Bool("cluster", false, "run the gateway cluster scenario instead of the durability soak")
	tenantsMode := flag.Bool("tenants", false, "run the multi-tenant fairness scenario instead of the durability soak")
	gateBin := flag.String("gate-bin", "", "blgate binary for -cluster/-tenants (default: build cmd/blgate)")
	replicas := flag.Int("replicas", 3, "cluster size for -cluster")
	verbose := flag.Bool("v", false, "narrate the schedule and forward server stderr")
	flag.Parse()

	ctx, stop := cli.SignalContext()
	defer stop()

	var logw io.Writer = io.Discard
	if *verbose {
		logw = os.Stderr
	}
	needGate := (*clusterMode || *tenantsMode) && *gateBin == ""
	if *bin == "" || needGate {
		dir, err := os.MkdirTemp("", "blchaos-bin-*")
		if err != nil {
			cli.Exit("blchaos", err)
		}
		defer os.RemoveAll(dir)
		if *bin == "" {
			if *bin, err = chaos.BuildServe(dir); err != nil {
				cli.Exit("blchaos", err)
			}
		}
		if needGate {
			if *gateBin, err = chaos.BuildGate(dir); err != nil {
				cli.Exit("blchaos", err)
			}
		}
	}

	if *tenantsMode {
		rep, err := chaos.RunTenants(ctx, chaos.TenantsConfig{
			ServeBin: *bin,
			GateBin:  *gateBin,
			Seed:     *seed,
			Log:      logw,
		})
		report(rep, err, rep == nil || len(rep.Violations) > 0, *seed)
		fmt.Fprintf(os.Stderr, "blchaos: clean tenants run: polite %d/%d ok under flood, hog %d/%d shed, %.0f%% keys remapped, %d/%d survivors warm\n",
			rep.FloodOK, rep.FloodSent, rep.HogShed, rep.HogSent,
			100*rep.RemapFraction, rep.SurvivorWarm, rep.SurvivorKeys)
		return
	}

	if *clusterMode {
		rep, err := chaos.RunCluster(ctx, chaos.ClusterConfig{
			ServeBin: *bin,
			GateBin:  *gateBin,
			Seed:     *seed,
			Duration: *duration,
			Replicas: *replicas,
			Log:      logw,
		})
		report(rep, err, rep == nil || len(rep.Violations) > 0, *seed)
		fmt.Fprintf(os.Stderr, "blchaos: clean cluster run: %d replicas, %d kills, %d requests, %d hedge wins, %d stale served, hedged trace assembled with %d spans\n",
			rep.Replicas, rep.Kills, rep.Requests, rep.HedgeWins, rep.StaleServed, rep.TraceSpans)
		return
	}

	rep, err := chaos.Run(ctx, chaos.Config{
		Bin:      *bin,
		Seed:     *seed,
		Duration: *duration,
		HitFloor: *hitFloor,
		StateDir: *stateDir,
		Log:      logw,
	})
	report(rep, err, rep == nil || len(rep.Violations) > 0, *seed)
	fmt.Fprintf(os.Stderr, "blchaos: clean run: %d rounds, %d kills, %d requests, warm hit rate %.2f\n",
		rep.Rounds, rep.Kills, rep.Requests, rep.WarmHitRate)
}

// report prints the JSON report and exits non-zero on harness errors
// or invariant violations; it returns only for a clean run.
func report(rep any, err error, violated bool, seed int64) {
	if rep != nil {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(rep)
	}
	if err != nil {
		cli.Exit("blchaos", err)
	}
	if violated {
		fmt.Fprintf(os.Stderr, "blchaos: invariant violation(s); replay with -seed %d\n", seed)
		os.Exit(1)
	}
}
