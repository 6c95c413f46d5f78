// Package sim is a discrete-event simulator for layer execution on the
// PIXEL tile grid. Where package mapper computes closed-form schedule
// bounds, sim *plays the schedule out*: neuron broadcasts occupy row
// waveguides, tiles compute rounds, input double-buffering overlaps the
// two, and the simulator reports the measured makespan, per-resource
// occupancy and the bottleneck — including the stall patterns the
// closed forms gloss over.
//
// The execution model per layer: work proceeds in rounds (the
// architecture model's unit: every tile consumes one burst per round).
// Round r needs its neuron broadcast completed before compute starts;
// each row waveguide carries one broadcast at a time; each tile
// computes one round at a time. With double-buffered inputs the
// broadcast of round r+1 may overlap the compute of round r.
package sim

import (
	"container/heap"
	"fmt"

	"pixel/internal/arch"
	"pixel/internal/cnn"
	"pixel/internal/interconnect"
)

// event is one scheduled state change.
type event struct {
	at   float64
	kind eventKind
	// round identifies the work round the event belongs to.
	round int
}

type eventKind int

const (
	broadcastDone eventKind = iota
	computeDone
)

// eventQueue is a min-heap on event time.
type eventQueue []event

func (q eventQueue) Len() int           { return len(q) }
func (q eventQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q eventQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)        { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() any          { old := *q; n := len(old); e := old[n-1]; *q = old[:n-1]; return e }

// Options configures a simulation.
type Options struct {
	// NeuronBits is the payload fired per broadcast per tile; zero
	// means lanes x bits (one burst per lane).
	NeuronBits int
	// MaxEvents bounds the event count; layers needing more rounds are
	// coarsened by batching rounds (RoundsPerStep grows). Zero means
	// 200k.
	MaxEvents int
	// DisableDoubleBuffer serializes broadcast and compute (no input
	// overlap), for measuring what the buffering buys.
	DisableDoubleBuffer bool
}

// LayerStats is the simulation outcome for one layer.
type LayerStats struct {
	Layer string
	// Rounds is the number of work rounds executed; RoundsPerStep > 1
	// means the simulator batched rounds to respect MaxEvents.
	Rounds        float64
	RoundsPerStep float64
	// MakespanS is the simulated end-to-end time [s].
	MakespanS float64
	// BroadcastBusyFrac / ComputeBusyFrac are resource occupancies in
	// [0,1] over the makespan.
	BroadcastBusyFrac float64
	ComputeBusyFrac   float64
	// Bottleneck names the binding resource: "broadcast" or "compute".
	Bottleneck string
}

// Sim couples a grid and a configuration.
type Sim struct {
	grid *interconnect.Grid
	cfg  arch.Config
	opt  Options
}

// New validates and returns a simulator.
func New(g *interconnect.Grid, cfg arch.Config, opt Options) (*Sim, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if opt.NeuronBits < 0 || opt.MaxEvents < 0 {
		return nil, fmt.Errorf("sim: negative option")
	}
	if opt.NeuronBits == 0 {
		opt.NeuronBits = cfg.Lanes * cfg.Bits
	}
	if opt.MaxEvents == 0 {
		opt.MaxEvents = 200_000
	}
	return &Sim{grid: g, cfg: cfg, opt: opt}, nil
}

// broadcastTime returns the waveguide occupancy of one round's neuron
// firing [s].
func (s *Sim) broadcastTime() float64 {
	return s.grid.BroadcastLatency(s.opt.NeuronBits)
}

// RunLayer simulates one layer and returns the measured statistics.
func (s *Sim) RunLayer(l cnn.Layer) (LayerStats, error) {
	if err := l.Validate(); err != nil {
		return LayerStats{}, err
	}
	counts := l.Counts(cnn.ModePaper)
	gridOps := float64(s.grid.Tiles()) * float64(s.cfg.Lanes) * s.cfg.OperandsPerBurst()
	rounds := counts.Mul / gridOps
	if rounds < 1 {
		rounds = 1
	}

	// Coarsen if the round count would blow the event budget: batch
	// k rounds per simulated step.
	steps := int(rounds)
	if steps < 1 {
		steps = 1
	}
	perStep := 1.0
	if maxSteps := s.opt.MaxEvents / 2; steps > maxSteps {
		perStep = float64(steps) / float64(maxSteps)
		steps = maxSteps
	}

	bTime := s.broadcastTime() * perStep
	cTime := arch.RoundTime(s.cfg) * perStep

	var q eventQueue
	heap.Init(&q)

	// Resource-availability clocks.
	var wgFree, tileFree float64
	var wgBusy, tileBusy float64
	var clock float64

	// Kick off the first broadcast.
	heap.Push(&q, event{at: bTime, kind: broadcastDone, round: 0})
	wgFree = bTime
	wgBusy += bTime
	launched := 1

	var done int
	for q.Len() > 0 {
		e := heap.Pop(&q).(event)
		clock = e.at
		switch e.kind {
		case broadcastDone:
			// The round's inputs are in; compute starts when a tile
			// slot frees (all tiles work in lockstep per round, so the
			// grid is one compute resource).
			start := e.at
			if tileFree > start {
				start = tileFree
			}
			tileFree = start + cTime
			tileBusy += cTime
			heap.Push(&q, event{at: tileFree, kind: computeDone, round: e.round})
			// Double buffering: the next broadcast may start as soon
			// as the waveguide frees; without it, only after this
			// round's compute finishes (handled on computeDone).
			if !s.opt.DisableDoubleBuffer && launched < steps {
				start := e.at
				if wgFree > start {
					start = wgFree
				}
				wgFree = start + bTime
				wgBusy += bTime
				heap.Push(&q, event{at: wgFree, kind: broadcastDone, round: launched})
				launched++
			}
		case computeDone:
			done++
			if s.opt.DisableDoubleBuffer && launched < steps {
				start := e.at
				if wgFree > start {
					start = wgFree
				}
				wgFree = start + bTime
				wgBusy += bTime
				heap.Push(&q, event{at: wgFree, kind: broadcastDone, round: launched})
				launched++
			}
		}
	}
	if done != steps {
		return LayerStats{}, fmt.Errorf("sim: executed %d of %d steps", done, steps)
	}

	st := LayerStats{
		Layer:         l.Name,
		Rounds:        rounds,
		RoundsPerStep: perStep,
		MakespanS:     clock,
	}
	if clock > 0 {
		st.BroadcastBusyFrac = wgBusy / clock
		st.ComputeBusyFrac = tileBusy / clock
	}
	if bTime > cTime {
		st.Bottleneck = "broadcast"
	} else {
		st.Bottleneck = "compute"
	}
	return st, nil
}

// RunNetwork simulates every layer and returns the per-layer stats and
// the summed makespan.
func (s *Sim) RunNetwork(net cnn.Network) ([]LayerStats, float64, error) {
	if err := net.Validate(); err != nil {
		return nil, 0, err
	}
	var stats []LayerStats
	var total float64
	for _, l := range net.Layers {
		st, err := s.RunLayer(l)
		if err != nil {
			return nil, 0, fmt.Errorf("sim: %s: %w", l.Name, err)
		}
		stats = append(stats, st)
		total += st.MakespanS
	}
	return stats, total, nil
}

// AnalyticBound returns the pipeline lower bound for a layer: the
// first broadcast plus rounds times the binding stage — what the
// simulated makespan converges to for long layers.
func (s *Sim) AnalyticBound(l cnn.Layer) float64 {
	counts := l.Counts(cnn.ModePaper)
	gridOps := float64(s.grid.Tiles()) * float64(s.cfg.Lanes) * s.cfg.OperandsPerBurst()
	rounds := counts.Mul / gridOps
	if rounds < 1 {
		rounds = 1
	}
	b := s.broadcastTime()
	c := arch.RoundTime(s.cfg)
	stage := c
	if b > stage {
		stage = b
	}
	if s.opt.DisableDoubleBuffer {
		stage = b + c
		return rounds * stage
	}
	return b + rounds*stage
}
