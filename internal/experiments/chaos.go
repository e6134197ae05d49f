package experiments

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/niid-bench/niidbench/internal/data"
	"github.com/niid-bench/niidbench/internal/fl"
	"github.com/niid-bench/niidbench/internal/nn"
	"github.com/niid-bench/niidbench/internal/partition"
	"github.com/niid-bench/niidbench/internal/report"
	"github.com/niid-bench/niidbench/internal/rng"
	"github.com/niid-bench/niidbench/internal/simnet"
)

func init() {
	register(Experiment{ID: "chaos", Title: "Fault injection and elastic membership: completion, dropped updates and accuracy under drop x rejoin", Run: runChaos})
}

// runChaos sweeps the robustness grid the paper's evaluation never had to
// face: per-frame connection-kill probability x rejoin policy x algorithm,
// over real loopback TCP with the deterministic fault plan doing the
// damage. Each cell reports how much of the schedule completed, how many
// updates the aggregation had to drop, how many evictions and successful
// rejoins the membership machine processed, and what the chaos cost in
// final accuracy against the cell's own no-fault baseline.
func runChaos(h *Harness) error {
	ds := "adult"
	if len(h.opt.Datasets) == 1 {
		ds = h.opt.Datasets[0]
	}
	train, test, err := h.Dataset(ds)
	if err != nil {
		return err
	}
	spec, err := data.Model(ds)
	if err != nil {
		return err
	}
	strat := partition.Strategy{Kind: partition.LabelDirichlet, Beta: 0.5}
	parties := h.p.parties
	_, locals, err := strat.Split(train, parties, rng.New(h.opt.Seed+17))
	if err != nil {
		return err
	}
	algos := fl.Algorithms()
	if h.opt.Scale == Smoke {
		algos = []fl.Algorithm{fl.FedAvg, fl.Scaffold}
	}
	drops := []float64{0.1, 0.3}
	if h.opt.Scale == Smoke {
		drops = []float64{0.2}
	}
	fmt.Fprintf(h.Out, "%s, %s, %d parties, %d rounds over loopback TCP, fault seed %d\n",
		ds, strat, parties, h.p.rounds, h.opt.Seed)
	for _, algo := range algos {
		cfg := fl.Config{
			Algorithm:   algo,
			Rounds:      h.p.rounds,
			LocalEpochs: h.p.epochs,
			BatchSize:   h.p.batch,
			LR:          lrFor(ds),
			Momentum:    0.9,
			Mu:          0.01,
			Seed:        h.opt.Seed,
			EvalEvery:   h.p.evalEvery,
			ChunkSize:   1024,
		}
		base, err := runChaosCell(cfg, spec, locals, test, simnet.FaultPlan{}, false)
		if err != nil {
			return fmt.Errorf("chaos %s baseline: %w", algo, err)
		}
		fmt.Fprintf(h.Out, "\n%s (baseline %s):\n", algo, report.Percent(base.acc))
		for _, drop := range drops {
			for _, rejoin := range []bool{false, true} {
				plan := simnet.FaultPlan{Seed: h.opt.Seed + uint64(drop*100), DropProb: drop, Grace: 1}
				cell, err := runChaosCell(cfg, spec, locals, test, plan, rejoin)
				if err != nil {
					return fmt.Errorf("chaos %s drop=%g rejoin=%v: %w", algo, drop, rejoin, err)
				}
				mode := "off"
				if rejoin {
					mode = "on "
				}
				fmt.Fprintf(h.Out, "  drop=%.2f rejoin=%s  rounds %d/%d  dropped %d  evictions %d  rejoins %d  acc %s (%+.1fpt)\n",
					drop, mode, cell.completed, cfg.Rounds, cell.droppedUpdates, cell.evictions, cell.rejoins,
					report.Percent(cell.acc), (cell.acc-base.acc)*100)
			}
		}
	}
	fmt.Fprintln(h.Out, "\nexpected shape: rejoin recovers most of the no-fault accuracy; without it, drops thin the aggregation and SCAFFOLD suffers most (lost control variates)")
	return nil
}

// chaosCell summarizes one grid cell's run.
type chaosCell struct {
	completed      int // rounds that finished (all of them unless quorum aborted)
	droppedUpdates int // sampled updates abandoned mid-round
	evictions      int // membership departures (suspect + evicted)
	rejoins        int // parties sampled again after a departure
	acc            float64
}

// runChaosCell runs one federation over loopback TCP with every party
// dialing through the given fault plan. Party-side errors are part of the
// experiment (a killed party without rejoin SHOULD fail); only server-side
// infrastructure failures are returned as errors, with a quorum abort
// folded into the completion count instead.
func runChaosCell(cfg fl.Config, spec nn.ModelSpec, locals []*data.Dataset, test *data.Dataset, plan simnet.FaultPlan, rejoin bool) (chaosCell, error) {
	ln, err := simnet.Listen("127.0.0.1:0")
	if err != nil {
		return chaosCell{}, err
	}
	defer ln.Close()
	var evictions int32
	ln.OnEvict = func(*simnet.EvictionError) { atomic.AddInt32(&evictions, 1) }
	ln.RoundTimeout = 20 * time.Second
	if rejoin {
		// Give departed parties a window to come back before the round is
		// re-attempted, and require half the federation to proceed. The
		// broadcast heal window lets a party whose conn died between rounds
		// catch this round's broadcast on its fresh conn.
		ln.RejoinGrace = 2 * time.Second
		cfg.MinParties = (len(locals) + 1) / 2
		cfg.QuorumRetries = 100
		cfg.QuorumRetryWait = 50 * time.Millisecond
	} else {
		// Nobody is coming back: waiting out the default retry budget
		// would only stall the cell.
		cfg.QuorumRetries = 4
		cfg.QuorumRetryWait = 50 * time.Millisecond
	}
	addr := ln.Addr()
	var wg sync.WaitGroup
	for i, dsl := range locals {
		wg.Add(1)
		go func(i int, dsl *data.Dataset) {
			defer wg.Done()
			// Errors are expected here: no-rejoin parties die with their
			// conns, and rejoining parties fail their final redials once
			// the server is gone.
			_ = simnet.DialPartyOpts(addr, i, dsl, spec, cfg, cfg.Seed+uint64(i)*7919+13, simnet.PartyOptions{
				Rejoin:           rejoin,
				RejoinBackoff:    10 * time.Millisecond,
				RejoinBackoffMax: 100 * time.Millisecond,
				RejoinAttempts:   8,
				Faults:           &plan,
			})
		}(i, dsl)
	}
	res, serveErr := ln.AcceptAndRun(len(locals), cfg, spec, test)
	_ = ln.Close()
	wg.Wait()
	cell := chaosCell{evictions: int(atomic.LoadInt32(&evictions))}
	if serveErr != nil {
		var qe *fl.QuorumError
		if errors.As(serveErr, &qe) {
			// The live set never recovered quorum: the schedule was cut
			// short at qe.Round — a result, not a failure.
			cell.completed = qe.Round
			return cell, nil
		}
		return chaosCell{}, serveErr
	}
	cell.completed = len(res.Curve)
	cell.acc = res.FinalAccuracy
	departed := map[int]bool{}
	for _, m := range res.Curve {
		cell.droppedUpdates += len(m.Dropped)
		for _, id := range m.Sampled {
			if departed[id] {
				cell.rejoins++
				departed[id] = false
			}
		}
		for _, id := range m.Dropped {
			departed[id] = true
		}
	}
	return cell, nil
}
