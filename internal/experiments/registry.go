package experiments

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"repro/internal/pool"
)

// Runner executes one named experiment at a scale, fanning its cells across
// the given worker pool (nil = a private pool sized by the scale), and
// returns the rendered result.
type Runner func(sc Scale, p *pool.Pool, log io.Writer) (string, error)

// Registry maps experiment IDs (as used by `rlbf-exp -exp`) to runners. RL
// experiments share one model zoo per invocation of RunMany.
func registry(zoo *Zoo) map[string]Runner {
	return map[string]Runner{
		"fig1": func(sc Scale, p *pool.Pool, _ io.Writer) (string, error) {
			t, err := Figure1(sc, p)
			return render(t, err)
		},
		"table2": func(sc Scale, _ *pool.Pool, _ io.Writer) (string, error) {
			return Table2(sc).String(), nil
		},
		"fig4": func(sc Scale, p *pool.Pool, log io.Writer) (string, error) {
			t, err := Figure4(sc, zoo, p, log)
			return render(t, err)
		},
		"table4": func(sc Scale, p *pool.Pool, log io.Writer) (string, error) {
			t, err := Table4(sc, zoo, p, log)
			return render(t, err)
		},
		"table5": func(sc Scale, p *pool.Pool, log io.Writer) (string, error) {
			t, err := Table5(sc, zoo, p, log)
			return render(t, err)
		},
		"ablation-skip": func(sc Scale, p *pool.Pool, log io.Writer) (string, error) {
			t, err := AblationSkip(sc, p, log)
			return render(t, err)
		},
		"ablation-penalty": func(sc Scale, p *pool.Pool, log io.Writer) (string, error) {
			t, err := AblationPenalty(sc, p, log)
			return render(t, err)
		},
		"ablation-obs": func(sc Scale, p *pool.Pool, log io.Writer) (string, error) {
			t, err := AblationObs(sc, p, log)
			return render(t, err)
		},
		"conservative": func(sc Scale, p *pool.Pool, log io.Writer) (string, error) {
			t, err := ConservativeCompare(sc, p, log)
			return render(t, err)
		},
		"loadsweep": func(sc Scale, p *pool.Pool, log io.Writer) (string, error) {
			t, err := LoadSweep(sc, p, log)
			return render(t, err)
		},
		"scenario": func(sc Scale, p *pool.Pool, log io.Writer) (string, error) {
			t, err := ScenarioCompare(sc, zoo, p, log)
			return render(t, err)
		},
	}
}

func render(t *Table, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return t.String(), nil
}

// Names lists the available experiment IDs.
func Names() []string {
	r := registry(NewZoo())
	names := make([]string, 0, len(r))
	for k := range r {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// RunMany executes the named experiments (or all of them for "all")
// concurrently against one shared model zoo and one shared worker pool sized
// by sc.Workers (GOMAXPROCS when 0), writing line-atomic, experiment-prefixed
// progress to log, and returns the rendered tables concatenated in request
// order. Cells are deterministically seeded and results assemble by index,
// so the returned string is byte-identical at any worker count.
func RunMany(names []string, sc Scale, log io.Writer) (string, error) {
	zoo := NewZoo()
	reg := registry(zoo)
	if len(names) == 1 && names[0] == "all" {
		names = Names()
	}
	for _, n := range names {
		if _, ok := reg[n]; !ok {
			return "", fmt.Errorf("experiments: unknown experiment %q (have %s)", n, strings.Join(Names(), ", "))
		}
	}

	p := pool.New(sc.workers())
	mux := newLogMux(log)
	outs := make([]string, len(names))
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	for i, n := range names {
		wg.Add(1)
		go func(i int, name string, run Runner) {
			// Experiment coordinators hold no pool tokens themselves — they
			// only submit cells and block on results — so any number of them
			// can run without oversubscribing the machine.
			defer wg.Done()
			w := mux.prefix("[" + name + "] ")
			defer w.Flush()
			fmt.Fprintf(w, "== running %s (scale %s) ==\n", name, sc.Name)
			outs[i], errs[i] = run(sc, p, w)
			if errs[i] != nil {
				p.Abort() // fail-fast: stop sibling experiments' pending cells
			}
		}(i, n, reg[n])
	}
	wg.Wait()

	// Prefer the real failure over the errAborted echoes of experiments that
	// were cut short by it; among real failures, lowest index wins.
	for i, err := range errs {
		if err != nil && !errors.Is(err, errAborted) {
			return "", fmt.Errorf("experiments: %s: %w", names[i], err)
		}
	}
	for i, err := range errs {
		if err != nil {
			return "", fmt.Errorf("experiments: %s: %w", names[i], err)
		}
	}
	var out strings.Builder
	for _, s := range outs {
		out.WriteString(s)
		out.WriteString("\n")
	}
	return out.String(), nil
}
