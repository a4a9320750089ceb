package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Runner executes one named experiment at a scale, fanning its cells over
// the scale's workers, and returns the rendered result.
type Runner func(sc Scale, log io.Writer) (string, error)

// Registry maps experiment IDs (as used by `rlbf-exp -exp`) to runners. RL
// experiments share one model zoo per invocation of RunMany.
func registry(zoo *Zoo) map[string]Runner {
	return map[string]Runner{
		"fig1": func(sc Scale, _ io.Writer) (string, error) {
			return render(Figure1(sc))
		},
		"table2": func(sc Scale, _ io.Writer) (string, error) {
			return Table2(sc).String(), nil
		},
		"fig4": func(sc Scale, log io.Writer) (string, error) {
			return render(Figure4(sc, zoo, log))
		},
		"table4": func(sc Scale, log io.Writer) (string, error) {
			return render(Table4(sc, zoo, log))
		},
		"table5": func(sc Scale, log io.Writer) (string, error) {
			return render(Table5(sc, zoo, log))
		},
		"ablation-skip": func(sc Scale, _ io.Writer) (string, error) {
			return render(AblationSkip(sc))
		},
		"ablation-penalty": func(sc Scale, _ io.Writer) (string, error) {
			return render(AblationPenalty(sc))
		},
		"ablation-obs": func(sc Scale, _ io.Writer) (string, error) {
			return render(AblationObs(sc))
		},
		"conservative": func(sc Scale, _ io.Writer) (string, error) {
			return render(ConservativeCompare(sc))
		},
		"loadsweep": func(sc Scale, _ io.Writer) (string, error) {
			return render(LoadSweep(sc))
		},
		"scenario": func(sc Scale, log io.Writer) (string, error) {
			return render(ScenarioCompare(sc, zoo, log))
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

// RunMany executes the named experiments (or all of them for "all") one
// after another, in request order, against one shared model zoo, writing
// each experiment's progress to log after its "== running" header. It
// returns the rendered tables concatenated in request order, or the first
// error. Cells are deterministically seeded and results assemble by index,
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
	if log == nil {
		log = io.Discard
	}
	var out strings.Builder
	for _, n := range names {
		fmt.Fprintf(log, "== running %s (scale %s) ==\n", n, sc.Name)
		s, err := reg[n](sc, log)
		if err != nil {
			return "", fmt.Errorf("experiments: %s: %w", n, err)
		}
		out.WriteString(s)
		out.WriteString("\n")
	}
	return out.String(), nil
}
