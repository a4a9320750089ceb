// Command rlbf-serve runs the scheduling simulator as a long-lived service:
// an HTTP/JSON daemon accepting live job submissions, cancellations and
// status queries from concurrent clients, driving a single authoritative
// engine in real or scaled time and answering "when will my job start?"
// from the reservation profile (DESIGN.md §12).
//
// Usage:
//
//	rlbf-serve -addr :8080 -procs 128 -policy FCFS -backfill conservative
//	rlbf-serve -addr :8080 -procs 128 -scale 3600 -wal state.wal -snapshot state.json
//
// With -wal the daemon is durable (DESIGN.md §13): every acknowledged
// command is fsync'd to the write-ahead log first, and a restart with the
// same -wal/-snapshot pair recovers the exact schedule. Without -wal the daemon keeps its state in memory only.
//
// Replicated deployment (DESIGN.md §14): a primary plus warm-standby
// followers that tail its command WAL over HTTP, byte-verify the derived
// schedule, and promote themselves (bumping the WAL generation — the fencing
// token) when the primary's lease expires:
//
//	rlbf-serve -addr :8080 -wal a.wal -snapshot a.json -peer http://host2:8080
//	rlbf-serve -addr :8081 -wal b.wal -snapshot b.json -follow -peer http://host1:8080
//
// Load-generation client mode (drives a running daemon; -addr may list
// several endpoints, failing over between them):
//
//	rlbf-serve -loadgen -addr http://127.0.0.1:8080,http://127.0.0.1:8081 -submitters 1000 -duration 20s
//
// On SIGTERM or SIGINT the daemon drains: intake closes (submissions get
// 503), in-flight requests finish, a final state snapshot is written (with
// -wal), and the process exits 0 with a "drained clean" log line — the
// contract the serve-load CI gate asserts.
//
// -debug-addr serves net/http/pprof on a listener of its own, never on the
// daemon's address; the drain sequence closes it:
//
//	rlbf-serve -addr :8080 -debug-addr 127.0.0.1:6060
//	go tool pprof http://127.0.0.1:6060/debug/pprof/heap
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/backfill"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/serveclient"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address (daemon) or base URL (-loadgen)")
	debugAddr := flag.String("debug-addr", "", "listen address for net/http/pprof, separate from -addr (empty = off)")
	name := flag.String("name", "rlbf-serve", "deployment name")
	procs := flag.Int("procs", 128, "machine size in processors")
	mem := flag.Int("mem", 0, "machine memory capacity (0 = no memory dimension)")
	policyArg := flag.String("policy", "FCFS", "base policy: FCFS, SJF, WFP3, F1, F2, F3, F4 or SAF")
	bfArg := flag.String("backfill", "conservative", "none, easy, easy-sjf or conservative")
	scale := flag.Float64("scale", 1, "simulated seconds per wall second")
	priorities := flag.Bool("priorities", false, "schedule with priority-tier ordering")
	starvationBound := flag.Float64("starvation-bound", 0, "aging bound: a job starves once wait exceeds bound x request (0 = off)")
	snapshotPath := flag.String("snapshot", "", "JSON state snapshot the WAL rotates through (needs -wal)")
	walPath := flag.String("wal", "", "durable write-ahead log path (needs -snapshot); recovers automatically from existing files")
	compactEvery := flag.Int("compact-every", 4096, "rotate snapshot+WAL after this many log records")
	follow := flag.Bool("follow", false, "run as a warm-standby follower of -peer (needs -wal)")
	peerArg := flag.String("peer", "", "comma-separated base URLs of the other replicas")
	lease := flag.Duration("lease", 3*time.Second, "primary lease: a follower promotes after this long without stream progress")
	ackTimeout := flag.Duration("ack-timeout", time.Second, "semi-sync replication ack timeout before an ack degrades to async")
	roundBudget := flag.Duration("round-budget", 2*time.Second, "watchdog: flag a scheduling round that exceeds this and dump goroutines (0 = off)")
	maxInflight := flag.Int("max-inflight", 256, "concurrently handled HTTP requests")
	maxQueued := flag.Int("max-queued", 0, "waiting HTTP requests before 429 load shedding (0 = 4x max-inflight)")
	predictCap := flag.Int("predict-cap", 4096, "max queue depth for predicted-start answers")

	loadgen := flag.Bool("loadgen", false, "run as load-generation client against -addr")
	submitters := flag.Int("submitters", 100, "loadgen: concurrent submitters")
	duration := flag.Duration("duration", 10*time.Second, "loadgen: run length")
	rate := flag.Float64("rate", 0, "loadgen: aggregate jobs/second (0 = unpaced)")
	statusEvery := flag.Int("status-every", 4, "loadgen: status query per N submissions per worker (0 = off)")
	cancelEvery := flag.Int("cancel-every", 0, "loadgen: cancel every Nth submission per worker (0 = off)")
	seed := flag.Uint64("seed", 1, "loadgen: workload seed")
	retries := flag.Int("retries", 0, "loadgen: retry budget per submission (backoff with jitter)")
	report := flag.String("report", "", "loadgen: write the JSON report to this file")
	minThroughput := flag.Float64("min-throughput", 0, "loadgen: fail unless submitted jobs/sec reaches this")
	maxP99 := flag.Float64("max-p99-ms", 0, "loadgen: fail if client submit p99 exceeds this many ms")
	flag.Parse()

	if *loadgen {
		runLoadgen(loadgenConfig{
			endpoints: splitEndpoints(*addr), submitters: *submitters, duration: *duration, rate: *rate,
			statusEvery: *statusEvery, cancelEvery: *cancelEvery, seed: *seed,
			retries: *retries, report: *report, minThroughput: *minThroughput, maxP99: *maxP99,
		})
		return
	}
	switch {
	case *predictCap < 0:
		usage("-predict-cap %d: want 0 or more (0 = the default)", *predictCap)
	case *compactEvery < 0:
		usage("-compact-every %d: want 0 or more (0 = the default)", *compactEvery)
	case !(*starvationBound >= 0) || math.IsInf(*starvationBound, 1):
		usage("-starvation-bound %v: want a finite bound >= 0 (0 = off)", *starvationBound)
	case !(*scale >= 0) || math.IsInf(*scale, 1):
		usage("-scale %v: want a finite scale >= 0 (0 = the default, 1)", *scale)
	case *lease < 0:
		usage("-lease %v: want 0 or more (0 = the default)", *lease)
	case *ackTimeout < 0:
		usage("-ack-timeout %v: want 0 or more (0 = the default)", *ackTimeout)
	case *roundBudget < 0:
		usage("-round-budget %v: want 0 or more (0 = off)", *roundBudget)
	}

	policy, err := sched.ByNameExtended(*policyArg)
	if err != nil {
		fatal("%v", err)
	}
	scn := sched.Scenario{Priorities: *priorities, StarvationBound: *starvationBound}
	est := backfill.Estimator(backfill.RequestTime{})
	var bf backfill.Backfiller
	switch strings.ToLower(*bfArg) {
	case "none":
	case "easy":
		bf = &backfill.EASY{Est: est, Scn: scn}
	case "easy-sjf":
		bf = &backfill.EASY{Est: est, Order: backfill.SJFOrder, Scn: scn}
	case "conservative":
		bf = backfill.NewConservative(est)
	default:
		fatal("unknown backfill strategy %q", *bfArg)
	}

	peers := splitEndpoints(*peerArg)
	cfg := serve.Config{
		Name: *name, Procs: *procs, Mem: *mem,
		Policy: policy, Backfiller: bf, Scenario: scn, Estimator: est,
		TimeScale: *scale, SnapshotPath: *snapshotPath, PredictCap: *predictCap,
		WALPath: *walPath, CompactEvery: *compactEvery,
		Lease: *lease, ReplAckTimeout: *ackTimeout, RoundBudget: *roundBudget,
	}

	var sched *serve.Scheduler
	var follower *serve.Follower
	switch {
	case *follow:
		if *walPath == "" {
			fatal("-follow requires -wal (the follower mirrors the primary's log)")
		}
		if len(peers) == 0 {
			fatal("-follow requires -peer")
		}
		if follower, err = serve.NewFollower(cfg, serve.FollowConfig{Peers: peers}); err != nil {
			fatal("follower: %v", err)
		}
		sched = follower.Scheduler()
		log.Printf("rlbf-serve: %s following %v at generation %d (%d records applied): recovery verified against primary digest",
			*name, peers, sched.WALGen(), sched.WALApplied())
	case *walPath != "":
		// Fencing handshake first, against the ON-DISK generation: recovery
		// itself compacts (bumping the local generation), which could mask a
		// tie with a follower that promoted while this primary was down.
		fencePeer, fenceGen, fenced := serve.FenceCheck(cfg, peers, nil)
		// Recover handles every on-disk combination: a full triple after a
		// crash, a partial one after a crash mid-rotation, or nothing at all
		// (fresh start). New would truncate existing logs, so WAL mode always
		// goes through Recover. A fenced zombie recovers WITHOUT the final
		// compaction: bumping its generation would rebase an unreplicated WAL
		// tail into a lineage that ties with the promoted peer's, and the
		// stale on-disk generation is what lets a later -follow restart know
		// to re-bootstrap.
		var info *serve.RecoveryInfo
		if fenced {
			sched, info, err = serve.RecoverFenced(cfg)
		} else {
			sched, info, err = serve.Recover(cfg)
		}
		if err != nil {
			fatal("recover: %v", err)
		}
		log.Printf("rlbf-serve: recovery verified: gen %d, %d prior records, %d commands replayed, %d records re-derived (%d byte-verified, %d re-appended, %d orphans dropped) in %s",
			info.WALGen, info.PriorRecords, info.Applied, info.Rederived, info.Verified,
			info.HistoryAppended, info.HistoryTruncated, info.Elapsed.Round(time.Microsecond))
		if fenced {
			sched.Fence(fencePeer, fenceGen)
		}
	default:
		if sched, err = serve.New(cfg); err != nil {
			fatal("%v", err)
		}
	}
	if follower != nil {
		follower.Start()
	} else {
		sched.Start()
		if len(peers) > 0 && *walPath != "" {
			// Runtime fencing guard: keep probing peers and self-fence the
			// moment any reachable replica reports a newer generation.
			defer serve.WatchPeers(sched, peers, time.Second, nil)()
		}
	}

	server := serve.NewServer(sched, *maxInflight, *maxQueued)
	httpSrv := &http.Server{Addr: *addr, Handler: server.Handler()}
	go func() {
		log.Printf("rlbf-serve: %s listening on %s (%d procs, policy %s, backfill %s, scale %gx)",
			*name, *addr, *procs, policy.Name(), bfName(bf), *scale)
		if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal("%v", err)
		}
	}()
	var debugSrv *http.Server
	if *debugAddr != "" {
		debugSrv = &http.Server{Addr: *debugAddr, Handler: debugHandler()}
		go func() {
			log.Printf("rlbf-serve: pprof listening on %s", *debugAddr)
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fatal("debug listener: %v", err)
			}
		}()
	}

	sigC := make(chan os.Signal, 1)
	signal.Notify(sigC, syscall.SIGTERM, syscall.SIGINT)
	sig := <-sigC
	log.Printf("rlbf-serve: %v received, draining", sig)
	if follower != nil {
		follower.Stop()
		if ferr := follower.Err(); ferr != nil {
			log.Printf("rlbf-serve: follower stream had stopped: %v", ferr)
		}
	}

	// Drain sequence: stop accepting submissions, let in-flight HTTP finish,
	// then stop the scheduler loop and persist the final state.
	sched.StartDraining()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("rlbf-serve: http shutdown: %v", err)
	}
	if debugSrv != nil {
		// Close, not Shutdown: a profile in flight (a CPU profile runs for
		// its full duration) must not hold up the drain.
		debugSrv.Close()
	}
	server.Close()
	st, err := sched.Drain()
	if err != nil {
		fatal("drain: %v", err)
	}
	// `accounted` is the zero-loss invariant the serve-crash CI gate checks:
	// every job the daemon ever acknowledged is either recorded (dispatched),
	// still queued or pending, or was explicitly canceled.
	accounted := len(st.Records) + len(st.Queued) + len(st.Pending) + len(st.Canceled)
	log.Printf("rlbf-serve: drained clean at sim clock %d: %d jobs recorded, %d queued, %d running, %d accounted",
		st.SimClock, len(st.Records), len(st.Queued), len(st.Running), accounted)
}

type loadgenConfig struct {
	endpoints             []string
	submitters            int
	duration              time.Duration
	rate                  float64
	statusEvery           int
	cancelEvery           int
	seed                  uint64
	retries               int
	report                string
	minThroughput, maxP99 float64
}

// splitEndpoints parses a comma-separated endpoint list, normalizing bare
// ports and host:port forms to http URLs.
func splitEndpoints(s string) []string {
	var out []string
	for _, e := range strings.Split(s, ",") {
		e = strings.TrimSpace(e)
		if e == "" {
			continue
		}
		if !strings.HasPrefix(e, "http") {
			e = "http://" + strings.TrimPrefix(e, ":")
		}
		out = append(out, e)
	}
	return out
}

func runLoadgen(c loadgenConfig) {
	rep, err := serveclient.RunLoad(serveclient.LoadConfig{
		Endpoints: c.endpoints, Submitters: c.submitters, Duration: c.duration, Rate: c.rate,
		StatusEvery: c.statusEvery, CancelEvery: c.cancelEvery, Seed: c.seed,
		Retries: c.retries,
	})
	if err != nil {
		fatal("%v", err)
	}
	out, _ := json.MarshalIndent(rep, "", "  ")
	fmt.Println(string(out))
	if c.report != "" {
		if err := os.WriteFile(c.report, append(out, '\n'), 0o644); err != nil {
			fatal("%v", err)
		}
	}
	if rep.Errors > 0 {
		fatal("loadgen: %d transport errors", rep.Errors)
	}
	if c.minThroughput > 0 && rep.Throughput < c.minThroughput {
		fatal("loadgen: throughput %.1f jobs/s below gate %.1f", rep.Throughput, c.minThroughput)
	}
	if c.maxP99 > 0 && rep.SubmitP99Ms > c.maxP99 {
		fatal("loadgen: submit p99 %.2fms above gate %.2fms", rep.SubmitP99Ms, c.maxP99)
	}
}

// debugHandler routes the net/http/pprof endpoints. It is served only on
// -debug-addr: the daemon's own mux (serve.Server.Handler) has no
// /debug/pprof/ route, so profiles are never exposed on the service address.
func debugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func bfName(bf backfill.Backfiller) string {
	if bf == nil {
		return "none"
	}
	return bf.Name()
}

// usage reports a bad flag value and exits 2, before any file is opened.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rlbf-serve: "+format+"\n", args...)
	os.Exit(2)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rlbf-serve: "+format+"\n", args...)
	os.Exit(1)
}
