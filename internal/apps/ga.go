package apps

import (
	"fmt"
	"strings"

	"blmr/internal/core"
	"blmr/internal/reducers"
	"blmr/internal/store"
)

// GA returns the genetic-algorithm app (Section 4.6, after Verma et al.'s
// MapReduce GA): the mapper evaluates each individual's fitness (OneMax —
// the number of set bits in the genome); the reducer keeps a window of
// individuals and, when the window fills, performs tournament selection and
// single-point crossover, emitting one offspring generation per window.
// Partial state is O(window_size) in both modes.
func GA(windowSize int) App {
	return App{
		Name:  "ga",
		Class: core.ClassCrossKey,
		Mapper: core.MapperFunc(func(key, value string, emit core.Emitter) {
			fitness := OneMax(value)
			emit.Emit(key, core.JoinValues(core.EncodeUint64(uint64(fitness)), value))
		}),
		NewGroup: func() core.GroupReducer {
			return reducers.NewCrossKeyWindow(windowSize, gaWindowOp)
		},
		NewStream: func(store.Store) core.StreamReducer {
			return reducers.NewCrossKeyWindow(windowSize, gaWindowOp)
		},
		Merger: func(a, b string) string { return a }, // window keeps no keyed partials
	}
}

// OneMax counts '1' bits in a genome bitstring.
func OneMax(genome string) int { return strings.Count(genome, "1") }

// gaWindowOp runs one selection + crossover round over a window of
// (fitness, genome) records and emits len(window) offspring. Selection is
// rank-based: the fitter half are parents (ties broken by key for
// determinism); crossover is single-point at a position derived from the
// parents' fitnesses.
func gaWindowOp(window []core.Record, out core.Output) {
	type ind struct {
		key     string
		fitness uint64
		genome  string
	}
	inds := make([]ind, len(window))
	for i, r := range window {
		fitness, genome := core.SplitPair(r.Value)
		inds[i] = ind{key: r.Key, fitness: core.DecodeUint64(fitness), genome: genome}
	}
	// Rank by fitness descending, key ascending for determinism.
	for i := 1; i < len(inds); i++ {
		for j := i; j > 0 && better(inds[j], inds[j-1]); j-- {
			inds[j], inds[j-1] = inds[j-1], inds[j]
		}
	}
	parents := inds[:(len(inds)+1)/2]
	for i := 0; i < len(window); i++ {
		a := parents[i%len(parents)]
		b := parents[(i+1)%len(parents)]
		child := crossover(a.genome, b.genome, int(a.fitness+b.fitness))
		out.Write(fmt.Sprintf("%s+%s/%d", a.key, b.key, i), child)
	}
}

func better(a, b struct {
	key     string
	fitness uint64
	genome  string
}) bool {
	if a.fitness != b.fitness {
		return a.fitness > b.fitness
	}
	return a.key < b.key
}

// crossover splices two genomes at a deterministic point.
func crossover(a, b string, salt int) string {
	if len(a) != len(b) || len(a) == 0 {
		return a
	}
	point := (salt*2654435761 + 17) % len(a)
	if point < 0 {
		point = -point
	}
	return a[:point] + b[point:]
}
