// Command fedserver runs the server half of a real multi-process federated
// deployment: it listens on a TCP address, waits for every party process
// to connect, runs the configured rounds and prints the result.
//
// Server and parties must launch with identical shared flags (-dataset,
// -partition, -parties, -seed, ...) so each process regenerates the same
// synthetic data and partition deterministically — the stand-in for silos
// that own their local data.
//
//	fedserver -addr 127.0.0.1:7070 -dataset adult -parties 4 -algo fedprox &
//	for i in 0 1 2 3; do
//	  fedparty -addr 127.0.0.1:7070 -index $i -dataset adult -parties 4 -algo fedprox &
//	done
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"

	"github.com/niid-bench/niidbench/internal/fedcli"
	"github.com/niid-bench/niidbench/internal/fl"
	"github.com/niid-bench/niidbench/internal/report"
	"github.com/niid-bench/niidbench/internal/simnet"
)

func main() {
	fs := flag.NewFlagSet("fedserver", flag.ExitOnError)
	var shared fedcli.Shared
	var srv fedcli.Server
	shared.Register(fs)
	srv.RegisterServer(fs)
	addr := fs.String("addr", "127.0.0.1:7070", "listen address")
	saveModel := fs.String("save-model", "", "write the final model state to this file")
	roundTimeout := fs.Duration("round-timeout", 0, "max wait per reply frame within a round (0 = wait forever); stalled parties are evicted")
	rejoinGrace := fs.Duration("rejoin-grace", 0, "how long a round's broadcast waits for a just-departed party to rejoin before dropping it (0 = never wait)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		log.Fatal(err)
	}

	cfg, spec, _, test, err := shared.Build()
	if err != nil {
		log.Fatal(err)
	}
	ln, err := simnet.Listen(*addr)
	if err != nil {
		log.Fatal(err)
	}
	defer ln.Close()
	ln.Token = shared.Token
	ln.RoundTimeout = *roundTimeout
	ln.RejoinGrace = *rejoinGrace
	ln.OnReject = func(err error) { log.Printf("fedserver: rejected connection: %v", err) }
	ln.OnEvict = func(ev *simnet.EvictionError) { log.Printf("fedserver: %v", ev) }

	if snapPath := srv.SnapshotPath(); snapPath != "" {
		if err := os.MkdirAll(srv.CheckpointDir, 0o755); err != nil {
			log.Fatal(err)
		}
		if snap, err := fl.LoadSnapshotFile(snapPath); err == nil {
			// Refuse a snapshot from a different experiment before any
			// party is admitted: resuming would silently change the math.
			if got, want := snap.ConfigFingerprint, fl.ConfigFingerprint(cfg); got != want {
				log.Fatal(&fl.SnapshotMismatchError{Want: want, Got: got})
			}
			ln.Resume = snap
			fmt.Printf("fedserver: restored snapshot at round %d/%d from %s\n", snap.Round, cfg.Rounds, snapPath)
		} else if !errors.Is(err, os.ErrNotExist) {
			// A snapshot that exists but fails its integrity checks is a
			// hard stop: training from garbage is worse than not resuming.
			log.Fatal(err)
		}
		ln.Checkpoint = func(snap *fl.FederationSnapshot) error {
			return fl.WriteSnapshotFile(snapPath, snap)
		}
		ln.CheckpointEvery = srv.CheckpointEvery
	}
	if srv.LoadModel != "" && ln.Resume == nil {
		state, err := fl.LoadStateFile(srv.LoadModel)
		if err != nil {
			log.Fatal(err)
		}
		ln.InitialState = state
		fmt.Printf("fedserver: seeded initial model from %s\n", srv.LoadModel)
	}

	mode := "synchronous rounds"
	if cfg.AsyncBuffer > 0 {
		mode = fmt.Sprintf("buffered-async, new global every %d folds", cfg.AsyncBuffer)
	}
	fmt.Printf("fedserver: listening on %s for %d parties (%s on %s, %s; %s), wire protocol v%d (admits >= v%d)\n",
		ln.Addr(), shared.Parties, cfg.Algorithm, shared.Dataset, shared.Partition, mode, simnet.ProtoVersion, simnet.MinProtoVersion)
	res, err := ln.AcceptAndRun(shared.Parties, cfg, spec, test)
	if err != nil {
		log.Fatal(err)
	}
	var accs []float64
	for _, m := range res.Curve {
		accs = append(accs, m.TestAccuracy)
	}
	fmt.Println(report.Curve("test accuracy", accs))
	fmt.Printf("final accuracy %s, %s per round on the wire\n",
		report.Percent(res.FinalAccuracy), report.Bytes(res.CommBytesPerRound))
	if res.Async != nil {
		fmt.Printf("async: %d folds over %d generations, staleness mean %.2f max %d\n",
			res.Async.Folds, len(res.Curve), res.Async.MeanStaleness, res.Async.MaxStaleness)
	}
	if *saveModel != "" {
		if err := fl.SaveStateFile(*saveModel, res.FinalState); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("model saved to %s\n", *saveModel)
	}
}
