package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"strconv"
	"time"
)

// runtimeSample is a reading of the Go runtime's own counters, taken from
// the benchmark around the timed federations.
type runtimeSample struct {
	allocBytes, gcCycles, gcCPU, totalCPU float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return math.NaN()
	}
	return runtimeSample{allocBytes: val(0), gcCycles: val(1), gcCPU: val(2), totalCPU: val(3)}
}

// summary is what a run's federations add up to.
type summary struct {
	setup    []float64 // seconds per federation
	rate     []float64 // samples per second per federation
	roundsMS []float64 // every round of every federation
	tailPct  int
	ttt      []float64 // seconds to the target round, per federation
	targetAt float64   // rounds until the median curve reaches the target
	finalAcc float64   // median over the run's distinct seeds
	commMB   float64
}

// runFederations runs the workload's federations, untraced, until the
// budget is spent and every seed of the run has been used once.
func runFederations(w workload, seed uint64, budget time.Duration) ([]*repResult, error) {
	var reps []*repResult
	start := time.Now()
	for r := 0; r < w.seeds || time.Since(start) < budget; r++ {
		rr, err := w.runRep(w.repSeed(seed, r))
		if err != nil {
			return nil, fmt.Errorf("federation %d (seed %d): %w", r, w.repSeed(seed, r), err)
		}
		if r > 0 {
			rr.release()
		}
		reps = append(reps, rr)
	}
	return reps, nil
}

// summarize derives the end-to-end figures from a run's federations and
// checks every federation's output. It returns the party-updates attempted
// and dropped.
func summarize(w workload, ref reference, seed uint64, reps []*repResult, chk *checks) (*summary, int64, int64) {
	s := &summary{}
	var attempted, failed int64
	for i, rr := range reps {
		a, f := checkRep(i, rr, ref, chk)
		attempted, failed = attempted+a, failed+f
		s.setup = append(s.setup, rr.setup.total().Seconds())
		s.rate = append(s.rate, float64(rr.samplesPerRound*int64(len(rr.res.Curve)))/rr.wall.Seconds())
		for _, m := range rr.res.Curve {
			s.roundsMS = append(s.roundsMS, ms(m.Duration))
		}
	}
	s.tailPct = tailPercentile(w.seeds * w.cfg.Rounds)

	// Accuracy is a function of the seed alone, so only the first pass over
	// the run's seeds counts; repeats add timing samples, not accuracy ones.
	distinct := reps[:w.seeds]
	finals := make([]float64, len(distinct))
	for i, rr := range distinct {
		finals[i] = rr.res.FinalAccuracy
	}
	s.finalAcc = median(finals)
	s.commMB = reps[0].res.CommBytesPerRound / 1e6
	// The run's accuracy curve is the median over its seeds, round by
	// round; it crosses the target where it first reaches it, interpolated
	// linearly between rounds.
	s.targetAt = -1
	prev := 0.0
	for t := 0; t < w.cfg.Rounds; t++ {
		accs := make([]float64, len(distinct))
		for i, rr := range distinct {
			accs[i] = rr.res.Curve[t].TestAccuracy
		}
		acc := median(accs)
		if acc >= ref.Target {
			s.targetAt = float64(t + 1)
			if t > 0 && acc > prev {
				s.targetAt = float64(t) + (ref.Target-prev)/(acc-prev)
			}
			break
		}
		prev = acc
	}
	if s.targetAt < 0 {
		chk.failf("the median accuracy curve never reached the target %.4f", ref.Target)
	}
	// How many rounds reaching the target takes varies with the seed far
	// more than any change to the code would move it, so the time is taken
	// to the default seed's crossing: this run's wall time for that many
	// rounds. A change that slows convergence fails the pins below instead.
	for _, rr := range reps {
		s.ttt = append(s.ttt, timeToRounds(rr, ref.Pins[strconv.Itoa(defaultSeed)].TargetRounds).Seconds())
	}
	if seed == defaultSeed || seed == heldOutSeed {
		key := strconv.FormatUint(seed, 10)
		want, ok := ref.Pins[key]
		switch {
		case !ok:
			chk.failf("reference.json pins nothing for seed %s", key)
		case math.Abs(s.finalAcc-want.FinalAcc) > 1e-12:
			chk.failf("final_acc %.17g at seed %s, reference %.17g", s.finalAcc, key, want.FinalAcc)
		case math.Abs(s.targetAt-want.TargetRounds) > 1e-9:
			chk.failf("the target took %.17g rounds at seed %s, reference %.17g", s.targetAt, key, want.TargetRounds)
		}
	}
	return s, attempted, failed
}

// timeToRounds is the wall time from round 0's start until x rounds had
// completed and been evaluated; a fractional x takes that share of the
// next round. Result.Curve durations exclude evaluation, so the rest of
// the federation's wall time (evaluation and the engine's loop) is spread
// evenly over its rounds. x < 0 means the target was never reached and
// counts the whole federation.
func timeToRounds(rr *repResult, x float64) time.Duration {
	curve := rr.res.Curve
	if x < 0 || x > float64(len(curve)) {
		return rr.wall
	}
	var inRounds time.Duration
	for _, m := range curve {
		inRounds += m.Duration
	}
	rest := (rr.wall - inRounds) / time.Duration(len(curve))
	var upTo time.Duration
	for i, m := range curve {
		share := math.Min(1, x-float64(i))
		if share <= 0 {
			break
		}
		upTo += time.Duration(share * float64(m.Duration+rest))
	}
	return upTo
}

// untraced runs the timed federations and reports the end-to-end metrics.
func untraced(w workload, ref reference, seed uint64, budget time.Duration, rep *report, chk *checks) (int64, int64, error) {
	reps, err := runFederations(w, seed, budget)
	if err != nil {
		return 0, 0, err
	}
	s, attempted, failed := summarize(w, ref, seed, reps, chk)
	rss, err := peakRSSMB()
	if err != nil {
		return attempted, failed, err
	}
	okFrac := 1.0
	if !chk.ok() {
		okFrac = 0
	} else if attempted > 0 {
		okFrac = 1 - float64(failed)/float64(attempted)
	}
	fmt.Printf("workload %s: %d federations over seeds %d..%d; round_ms.tail is p%d of %d rounds; target %.4f reached after %.17g rounds of the median curve; final_acc %.17g\n",
		w.name, len(reps), w.repSeed(seed, 0), w.repSeed(seed, w.seeds-1), s.tailPct, len(s.roundsMS), ref.Target, s.targetAt, s.finalAcc)
	rep.add("setup_s", "s", median(s.setup))
	rep.add("samples_per_s", "1/s", median(s.rate))
	rep.add("round_ms.p50", "ms", median(s.roundsMS))
	rep.add("round_ms.tail", "ms", quantile(s.roundsMS, float64(s.tailPct)/100))
	rep.add("time_to_target_s", "s", median(s.ttt))
	rep.add("final_acc", "frac", s.finalAcc)
	rep.add("comm_mb_per_round", "MB", s.commMB)
	rep.add("peak_rss_mb", "MB", rss)
	rep.add("updates_ok_frac", "frac", okFrac)
	return attempted, failed, nil
}
