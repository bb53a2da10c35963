// Command optimus-server runs the Optimus REST gateway (§7): register models
// and invoke inference functions over HTTP against a live Optimus-scheduled
// cluster.
//
//	optimus-server -addr :8080 -preload 8
//
//	curl localhost:8080/api/models
//	curl -X POST localhost:8080/api/invoke -d '{"model":"resnet50-imagenet"}'
//	curl 'localhost:8080/api/plan?src=resnet50-imagenet&dst=resnet101-imagenet'
//	curl localhost:8080/api/stats
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cliutil"
	"repro/internal/controlplane"
	"repro/internal/cost"
	"repro/internal/gateway"
	"repro/internal/policy"
	"repro/internal/repository"
	"repro/internal/simulate"
	"repro/internal/supervisor"
	"repro/internal/zoo"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		nodes      = flag.Int("nodes", 2, "worker nodes")
		slots      = flag.Int("containers", 4, "containers per node")
		gpu        = flag.Bool("gpu", false, "GPU hardware profile")
		policyName = flag.String("policy", "optimus", "container policy: optimus|openwhisk|pagurus|tetris")
		preload    = flag.Int("preload", 6, "preregister this many representative models (0 = none)")
		modelsDir  = flag.String("models-dir", "", "persist registered models to this directory (reloaded on restart)")
		reqTimeout = flag.Duration("request-timeout", 10*time.Second, "per-request handling timeout (0 = none)")
		maxInfl    = flag.Int("max-inflight", 256, "max concurrent requests before shedding with 503 (0 = unbounded)")
		drainTime  = flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown drain window")
		watchdog   = flag.Float64("watchdog", 0, "cancel transforms at this multiple of their planned cost (≤1 disables)")
		brkN       = flag.Int("breaker-threshold", 0, "open a pair's circuit breaker after N consecutive transform failures (0 disables)")
		brkCool    = flag.Duration("breaker-cooldown", 0, "open-breaker wait before a half-open probe (default 5m)")
		ckptPath   = flag.String("checkpoint", "", "durable checkpoint file: restored on startup, written periodically and on shutdown")
		ckptEvery  = flag.Duration("checkpoint-interval", time.Minute, "periodic checkpoint cadence (0 = shutdown-only)")
		planWork   = flag.Int("plan-workers", 0, "offline-planning worker pool size (0 = GOMAXPROCS)")
		planMax    = flag.Int("plan-cache-max", 0, "max cached transformation plans, LRU-evicted beyond it (0 = unbounded)")
		seed       = flag.Int64("seed", 1, "fault-injection seed")
	)
	ff := cliutil.RegisterFaultFlags(flag.CommandLine, true)
	rf := cliutil.RegisterResilienceFlags(flag.CommandLine)
	cp := cliutil.RegisterControlPlaneFlags(flag.CommandLine)
	flag.Parse()

	if err := ff.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := rf.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := cp.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	prof := cost.CPU()
	if *gpu {
		prof = cost.GPU()
	}
	var pol simulate.Policy
	switch *policyName {
	case "optimus":
		pol = policy.Optimus{}
	case "openwhisk":
		pol = policy.OpenWhisk{}
	case "pagurus":
		pol = policy.Pagurus{}
	case "tetris":
		pol = policy.Tetris{}
	default:
		log.Fatalf("unknown policy %q", *policyName)
	}

	var store *repository.Store
	if *modelsDir != "" {
		var err error
		store, err = repository.Open(*modelsDir, nil)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("model repository at %s (%d models)", *modelsDir, store.Len())
	}
	gw := gateway.New(gateway.Config{
		Cluster: simulate.Config{
			Nodes:             *nodes,
			ContainersPerNode: *slots,
			Profile:           prof,
			Policy:            pol,
			Seed:              *seed,
			PlanCacheMax:      *planMax,
			Faults:            ff.Rates(),
			WatchdogFactor:    *watchdog,
			Breaker: supervisor.BreakerConfig{
				Threshold: *brkN,
				Cooldown:  *brkCool,
			},
			Health: rf.HealthConfig(),
			Retry:  rf.BackoffConfig(),
			Hedge:  rf.HedgeConfig(),
		},
		Repository:     store,
		RequestTimeout: *reqTimeout,
		MaxInflight:    *maxInfl,
		CheckpointPath: *ckptPath,
		PlanWorkers:    *planWork,
	})

	if *preload > 0 {
		img := zoo.Imgclsmob()
		cnn, bert := zoo.Representative21()
		names := append(append([]string(nil), cnn...), bert...)
		if *preload > len(names) {
			*preload = len(names)
		}
		bz := zoo.BERTZoo()
		for _, n := range names[:*preload] {
			g, err := img.Get(n)
			if err != nil {
				g = bz.MustGet(n)
			}
			if store != nil {
				if _, ok := store.Get(n); ok {
					continue // already persisted from a previous run
				}
			}
			if err := gw.RegisterModel(g); err != nil {
				if errors.Is(err, gateway.ErrDuplicateModel) {
					continue // already live, e.g. restored from a checkpoint
				}
				log.Fatalf("preload %s: %v", n, err)
			}
			log.Printf("preloaded %s", g)
		}
	}

	// In a multi-gateway deployment the proxy fronts the local handler: it
	// forwards non-owned invokes to their consistent-hash ring owner and
	// mirrors registrations, so every process serves an identical catalog
	// while each function's containers warm only on its owner (DESIGN.md
	// "Multi-gateway control plane").
	handler := http.Handler(gw.Handler())
	if cp.Enabled() {
		peers, err := cp.PeerSet()
		if err != nil {
			log.Fatal(err)
		}
		proxy, err := controlplane.NewProxy(*cp.Self, peers, *seed, cp.RingVNodes(), handler)
		if err != nil {
			log.Fatal(err)
		}
		handler = proxy
		log.Printf("control plane: self=%s, %d peers, %d vnodes", *cp.Self, len(peers), cp.RingVNodes())
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}
	fmt.Printf("optimus-server listening on %s (policy=%s, %d nodes × %d containers, %s profile)\n",
		*addr, *policyName, *nodes, *slots, prof.Name)

	// Serve until SIGINT/SIGTERM, then drain in-flight requests before
	// exiting so clients never see connections cut mid-response.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Periodic checkpointing: write atomic snapshots on a timer; a failed
	// write keeps the previous snapshot and the server keeps serving.
	if *ckptPath != "" && *ckptEvery > 0 {
		go func() {
			tick := time.NewTicker(*ckptEvery)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					if err := gw.SaveCheckpoint(); err != nil {
						log.Printf("checkpoint: %v", err)
					}
				}
			}
		}()
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
		stop()
		log.Printf("shutting down, draining for up to %v", *drainTime)
		drainCtx, cancel := context.WithTimeout(context.Background(), *drainTime)
		defer cancel()
		if err := srv.Shutdown(drainCtx); err != nil {
			log.Printf("drain incomplete: %v", err)
			_ = srv.Close()
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("server: %v", err)
		}
		if *ckptPath != "" {
			// Final snapshot after the drain so the checkpoint reflects every
			// served request.
			if err := gw.SaveCheckpoint(); err != nil {
				log.Printf("shutdown checkpoint: %v", err)
			} else {
				log.Printf("checkpoint written to %s", *ckptPath)
			}
		}
		log.Print("bye")
	}
}
