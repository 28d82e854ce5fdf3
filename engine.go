package ftdse

import (
	"fmt"
	"strings"

	"repro/ftdse/internal/core"
)

// Engine is a pluggable search algorithm: it receives a Search handle —
// the problem's move neighborhood, the memoizing parallel evaluator and
// the run's incumbent channel — and drives exploration however it likes
// under the caller's context. Select one with WithEngine; the default
// is the paper's greedy→tabu pipeline (DefaultEngine).
//
// Engines must be deterministic given their configuration (stochastic
// ones derive all randomness from an explicit seed), must honor context
// cancellation within one scheduling pass, and must report every
// strictly-better design through Search.Publish. See DESIGN.md §10 for
// the full contract.
type Engine = core.Engine

// Search is the handle an Engine explores through: the legal move
// neighborhood (Moves), the memoizing parallel evaluator (Evaluate,
// Materialize), the incumbent board (Publish, Best) and the working
// point (Current) that pipeline stages hand from engine to engine.
type Search = core.Search

// Move is one design transformation: it replaces the fault-tolerance
// policy (and thereby the mapping) of a single process. Moves come from
// Search.Moves and are applied with ApplyTo.
type Move = core.Move

// MoveEval is the outcome of evaluating one candidate move. Evaluate
// returns costs only — candidates are scheduled into reusable arenas —
// so engines materialize the schedule of the winning move with
// Search.Materialize.
type MoveEval = core.MoveEval

// GreedyEngine is the paper's greedy improvement loop (GreedyMPA,
// step 2 of Figure 6): apply the best critical-path move while it
// improves the design.
type GreedyEngine = core.GreedyEngine

// TabuEngine is the paper's tabu search (TabuSearchMPA, Figure 9) with
// selective history, aspiration and diversification.
type TabuEngine = core.TabuEngine

// SimulatedAnnealingEngine explores with a seeded, deterministic
// geometric cooling schedule — a genuinely different algorithm over the
// same move neighborhood. The zero value is ready to use; see WithSeed.
type SimulatedAnnealingEngine = core.SimulatedAnnealingEngine

// PipelineEngine runs its stages sequentially, each starting from the
// incumbent the previous stages produced.
type PipelineEngine = core.PipelineEngine

// PortfolioEngine races its engines concurrently, each on a private
// scheduling context with an equal share of the configured workers,
// exchanging incumbents through the shared progress board. The winner
// is selected deterministically: lowest cost, ties broken by racer
// order — so an untimed portfolio is at least as good as its best
// racer, reproducibly.
type PortfolioEngine = core.PortfolioEngine

// DefaultEngine returns the paper's optimization pipeline (greedy
// improvement, then tabu search) — the engine used when WithEngine is
// not given. It reproduces the pre-engine solver bit for bit.
func DefaultEngine() Engine { return core.DefaultEngine() }

// Portfolio composes engines into a racing PortfolioEngine.
func Portfolio(racers ...Engine) Engine { return PortfolioEngine{Racers: racers} }

// Engines returns the canonical engine names accepted by ParseEngine,
// in documentation order. Use it for flag usage strings so every tool
// lists the same set.
func Engines() []string {
	return []string{"default", "greedy", "tabu", "sa", "portfolio"}
}

// StochasticEngines returns the subset of Engines whose results depend
// on WithSeed ("sa", and "portfolio" whose racers include it). The
// service layer uses it to normalize seeds out of requests that cannot
// be affected by them. Keep it in sync with ParseEngine when adding a
// seeded engine — TestStochasticEnginesSubset guards the subset
// relation.
func StochasticEngines() []string {
	return []string{"sa", "portfolio"}
}

// ParseEngine converts an engine name (case-insensitive) to a ready
// engine:
//
//	default    the paper's greedy→tabu pipeline
//	greedy     greedy improvement only
//	tabu       tabu search only
//	sa         simulated annealing (seeded via WithSeed)
//	portfolio  Portfolio(tabu, sa): race both, keep the better design
//
// It is the inverse of Engine.Name for every listed name.
func ParseEngine(name string) (Engine, error) {
	switch strings.ToLower(name) {
	case "default":
		return DefaultEngine(), nil
	case "greedy":
		return GreedyEngine{}, nil
	case "tabu":
		return TabuEngine{}, nil
	case "sa":
		return SimulatedAnnealingEngine{}, nil
	case "portfolio":
		return PortfolioEngine{
			Label:  "portfolio",
			Racers: []Engine{TabuEngine{}, SimulatedAnnealingEngine{}},
		}, nil
	}
	return nil, fmt.Errorf("ftdse: unknown engine %q (want one of %s)",
		name, strings.Join(Engines(), ", "))
}
