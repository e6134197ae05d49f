// Package fedcli holds the configuration contract shared by the fedserver
// and fedparty binaries: both sides regenerate the same synthetic dataset
// and partition deterministically from identical flags, standing in for
// silos that own their local data.
package fedcli

import (
	"flag"
	"fmt"
	"path/filepath"
	"time"

	"github.com/niid-bench/niidbench/internal/data"
	"github.com/niid-bench/niidbench/internal/fl"
	"github.com/niid-bench/niidbench/internal/nn"
	"github.com/niid-bench/niidbench/internal/partition"
	"github.com/niid-bench/niidbench/internal/rng"
	"github.com/niid-bench/niidbench/internal/simnet"
)

// Shared carries every flag the server and the parties must agree on.
type Shared struct {
	Dataset   string
	Partition string
	K         int
	Beta      float64
	Sigma     float64
	Algo      string
	Parties   int
	Rounds    int
	Epochs    int
	Batch     int
	LR        float64
	Mu        float64
	TrainN    int
	TestN     int
	Seed      uint64
	// Chunk is the streaming chunk size in float64 elements for both the
	// round broadcast and the update replies (0 = one frame per vector).
	// The server's value is authoritative: it rides each round's
	// broadcast, so parties follow it even if their own flag differs.
	Chunk int
	// ChunkWindow bounds the decoded-but-unfolded chunk frames the server
	// buffers per connection (backpressure depth); 0 means the default 4.
	ChunkWindow int
	// Token is the optional shared handshake secret. The server rejects
	// (only) the connections that fail to present it.
	Token string
	// MinParties is the server's round quorum: a round attempt with fewer
	// live parties is skipped and retried instead of run thin (0 = 1, any
	// live party suffices).
	MinParties int
	// Rejoin makes a party survive transport loss by redialing with
	// backoff and re-helloing under its old ID (the server answers with a
	// resync).
	Rejoin bool
	// HelloTimeout bounds how long a party waits for the server's first
	// frame after its hello (0 = forever) — the party-side mirror of the
	// server's hello timeout.
	HelloTimeout time.Duration
	// FaultSeed, DropProb, Latency and Jitter describe the deterministic
	// fault plan injected on the party side (see simnet.FaultPlan); all
	// zero means no faults.
	FaultSeed       uint64
	DropProb        float64
	Latency, Jitter time.Duration
	// AsyncBuffer switches the server to buffered-async aggregation: it
	// folds updates the moment they arrive and publishes a new global
	// model every AsyncBuffer folds instead of running lockstep rounds
	// (0 = synchronous). The server's value decides the mode; parties
	// follow whichever protocol the server speaks.
	AsyncBuffer int
	// Staleness is the async staleness-discount exponent a in
	// s(tau) = 1/(1+tau)^a (0 = the default 0.5).
	Staleness float64
	// FoldAhead bounds how many parties past the synchronous fold cursor
	// may stage fully-decoded updates while they wait their turn
	// (0 = the default 4; 1 reproduces the legacy serial drain).
	FoldAhead int
	// Codec selects the wire chunk codec for broadcasts and update
	// replies: f64 (raw, the default), f32, int8 or int4. The server's
	// value is negotiated per party at the hello; parties that do not
	// support it ride the raw wire.
	Codec string
	// FairShare caps how many folds one party may contribute to a single
	// async buffer window (0 = the default 1); the effective cap is never
	// below ceil(buffer/live) so a depleted federation still flushes.
	FairShare int
}

// Register wires the shared flags into fs.
func (s *Shared) Register(fs *flag.FlagSet) {
	fs.StringVar(&s.Dataset, "dataset", "adult", "dataset family")
	fs.StringVar(&s.Partition, "partition", "label-dirichlet", "partition kind (iid, label-quantity, label-dirichlet, feature-noise, feature-synthetic, feature-realworld, quantity)")
	fs.IntVar(&s.K, "k", 2, "classes per party for label-quantity")
	fs.Float64Var(&s.Beta, "beta", 0.5, "Dirichlet concentration")
	fs.Float64Var(&s.Sigma, "sigma", 0.1, "noise level for feature-noise")
	fs.StringVar(&s.Algo, "algo", "fedavg", "fedavg, fedprox, scaffold, fednova, feddyn, moon")
	fs.IntVar(&s.Parties, "parties", 4, "number of parties")
	fs.IntVar(&s.Rounds, "rounds", 10, "communication rounds")
	fs.IntVar(&s.Epochs, "epochs", 3, "local epochs")
	fs.IntVar(&s.Batch, "batch", 32, "batch size")
	fs.Float64Var(&s.LR, "lr", 0.01, "learning rate")
	fs.Float64Var(&s.Mu, "mu", 0.01, "FedProx mu")
	fs.IntVar(&s.TrainN, "train", 0, "training samples (0 = family default)")
	fs.IntVar(&s.TestN, "test", 0, "test samples (0 = family default)")
	fs.Uint64Var(&s.Seed, "seed", 1, "shared seed; all processes must use the same value")
	fs.IntVar(&s.Chunk, "chunk", 65536, "streaming chunk size in float64 elements for broadcasts and update replies (0 = one frame per vector); the server's value wins")
	fs.IntVar(&s.ChunkWindow, "chunk-window", 4, "decoded chunk frames the server buffers per connection before backpressure")
	fs.StringVar(&s.Token, "token", "", "shared handshake secret; when the server sets one, parties must present it")
	fs.IntVar(&s.MinParties, "min-parties", 0, "server round quorum: rounds with fewer live parties are skipped and retried (0 = any)")
	fs.BoolVar(&s.Rejoin, "rejoin", false, "party: redial with backoff after transport loss and rejoin under the old ID")
	fs.DurationVar(&s.HelloTimeout, "hello-timeout", 0, "party: max wait for the server's first frame after the hello (0 = forever)")
	fs.Uint64Var(&s.FaultSeed, "fault-seed", 0, "party: seed for the deterministic fault plan (with -drop-prob/-latency)")
	fs.Float64Var(&s.DropProb, "drop-prob", 0, "party: per-frame probability of killing the connection (fault injection)")
	fs.DurationVar(&s.Latency, "latency", 0, "party: injected delay per sent frame (fault injection)")
	fs.DurationVar(&s.Jitter, "jitter", 0, "party: extra uniform delay per sent frame on top of -latency")
	fs.IntVar(&s.AsyncBuffer, "async-buffer", 0, "buffered-async aggregation: fold updates as they arrive and publish a new global every M folds (0 = synchronous rounds); the server's value decides the mode")
	fs.Float64Var(&s.Staleness, "staleness", 0, "async staleness-discount exponent a in 1/(1+tau)^a (0 = default 0.5)")
	fs.IntVar(&s.FoldAhead, "fold-ahead", 0, "sync mode: parties past the fold cursor allowed to stage decoded updates (0 = default 4, 1 = serial drain)")
	fs.StringVar(&s.Codec, "codec", "", "wire chunk codec: f64 (raw, default), f32, int8, int4; negotiated per party, peers without the codec fall back to f64")
	fs.IntVar(&s.FairShare, "fair-share", 0, "async mode: max folds one party may contribute per buffer window (0 = default 1)")
}

// Server carries the server-only durability flags: where (and how often)
// the federation checkpoints itself, and optional model seeding.
type Server struct {
	// CheckpointDir, when non-empty, is the directory the server writes
	// its federation snapshot into (crash-safely, at round boundaries)
	// and restores from at startup if a snapshot is already there.
	CheckpointDir string
	// CheckpointEvery is the snapshot cadence in rounds (default 1: every
	// round boundary is durable, which is what makes a crash-restart
	// bitwise-invisible; coarser cadences trade fsync cost for replaying
	// more rounds after a crash).
	CheckpointEvery int
	// LoadModel, when non-empty, seeds round 0's global model from a bare
	// state-vector checkpoint file (ignored when a snapshot is restored).
	LoadModel string
}

// RegisterServer wires the server-only flags into fs.
func (s *Server) RegisterServer(fs *flag.FlagSet) {
	fs.StringVar(&s.CheckpointDir, "checkpoint-dir", "", "directory for durable federation snapshots; restart with the same flags to resume from the last round boundary")
	fs.IntVar(&s.CheckpointEvery, "checkpoint-every", 1, "snapshot cadence in rounds (1 = every round, the only cadence that pins a crash-restart bitwise)")
	fs.StringVar(&s.LoadModel, "load-model", "", "seed the initial global model from this state checkpoint file")
}

// SnapshotPath returns the snapshot file path inside CheckpointDir, or
// "" when checkpointing is off.
func (s *Server) SnapshotPath() string {
	if s.CheckpointDir == "" {
		return ""
	}
	return filepath.Join(s.CheckpointDir, fl.SnapshotFileName)
}

// FaultPlan assembles the party-side fault plan from the chaos flags; nil
// when no fault axis is set.
func (s *Shared) FaultPlan() *simnet.FaultPlan {
	p := simnet.FaultPlan{Seed: s.FaultSeed, DropProb: s.DropProb, Latency: s.Latency, Jitter: s.Jitter}
	if p.Empty() {
		return nil
	}
	return &p
}

// PartyOptions assembles the dialing options for one party from the
// shared flags.
func (s *Shared) PartyOptions() simnet.PartyOptions {
	return simnet.PartyOptions{
		Token:        s.Token,
		HelloTimeout: s.HelloTimeout,
		Rejoin:       s.Rejoin,
		Faults:       s.FaultPlan(),
	}
}

// Build regenerates the dataset, partition, model spec and training config
// from the shared flags. Every process calling Build with identical flags
// gets identical local datasets.
func (s *Shared) Build() (fl.Config, nn.ModelSpec, []*data.Dataset, *data.Dataset, error) {
	strat := partition.Strategy{Kind: partition.Kind(s.Partition), K: s.K, Beta: s.Beta}
	if strat.Kind == partition.FeatureNoise {
		strat.NoiseSigma = s.Sigma
	}
	if strat.Kind == partition.FeatureSynthetic {
		s.Parties = 4
	}
	train, test, err := data.Load(s.Dataset, data.Config{TrainN: s.TrainN, TestN: s.TestN, Seed: s.Seed})
	if err != nil {
		return fl.Config{}, nn.ModelSpec{}, nil, nil, err
	}
	spec, err := data.Model(s.Dataset)
	if err != nil {
		return fl.Config{}, nn.ModelSpec{}, nil, nil, err
	}
	_, locals, err := strat.Split(train, s.Parties, rng.New(s.Seed+17))
	if err != nil {
		return fl.Config{}, nn.ModelSpec{}, nil, nil, err
	}
	cfg := fl.Config{
		Algorithm:         fl.Algorithm(s.Algo),
		Rounds:            s.Rounds,
		LocalEpochs:       s.Epochs,
		BatchSize:         s.Batch,
		LR:                s.LR,
		Momentum:          0.9,
		Mu:                s.Mu,
		Seed:              s.Seed,
		ChunkSize:         s.Chunk,
		ChunkWindow:       s.ChunkWindow,
		MinParties:        s.MinParties,
		AsyncBuffer:       s.AsyncBuffer,
		StalenessExponent: s.Staleness,
		FoldAhead:         s.FoldAhead,
		Codec:             fl.Codec(s.Codec),
		AsyncFairShare:    s.FairShare,
	}
	if _, err := cfg.Normalize(); err != nil {
		return fl.Config{}, nn.ModelSpec{}, nil, nil, err
	}
	return cfg, spec, locals, test, nil
}

// PartySeed returns the deterministic training seed for party index i.
func (s *Shared) PartySeed(i int) uint64 {
	return s.Seed + uint64(i)*7919 + 13
}

// Validate checks the party index against the federation size.
func (s *Shared) Validate(index int) error {
	if index < 0 || index >= s.Parties {
		return fmt.Errorf("fedcli: party index %d outside [0,%d)", index, s.Parties)
	}
	return nil
}
