package core

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/backfill"
	"repro/internal/nn"
)

// Model is the serialisable form of a trained RLBackfilling agent: the
// kernel policy, which is all an evaluating agent runs (§3.3.1), plus enough
// metadata to reproduce Table 5's "RL-X applied to Y" protocol. The critic
// only shapes training and is not saved; ReadModel ignores the "value" key
// that older files carry.
type Model struct {
	Policy     *nn.MLP   `json:"policy"`
	Obs        ObsConfig `json:"obs"`
	Estimator  string    `json:"estimator"`   // "RT" or "AR"
	BasePolicy string    `json:"base_policy"` // policy used during training
	TrainedOn  string    `json:"trained_on"`  // trace name
	Epochs     int       `json:"epochs"`
}

// ExportModel captures the agent's policy and metadata.
func ExportModel(a *Agent, basePolicy, trainedOn string, epochs int) Model {
	estName := "RT"
	if _, ok := a.Est.(backfill.ActualRuntime); ok {
		estName = "AR"
	}
	return Model{
		Policy:     a.Policy,
		Obs:        a.Obs,
		Estimator:  estName,
		BasePolicy: basePolicy,
		TrainedOn:  trainedOn,
		Epochs:     epochs,
	}
}

// Agent reconstructs a ready-to-use greedy agent from the model. The agent
// has no critic (Value is nil): evaluation never runs one.
func (m Model) Agent() (*Agent, error) {
	if m.Policy == nil {
		return nil, fmt.Errorf("core: model is missing its policy network")
	}
	if m.Policy.Sizes[0] != JobFeatures {
		return nil, fmt.Errorf("core: model kernel expects %d features, library uses %d",
			m.Policy.Sizes[0], JobFeatures)
	}
	// the kernel scores each row with its one output
	if out := m.Policy.Sizes[len(m.Policy.Sizes)-1]; out != 1 {
		return nil, fmt.Errorf("core: model policy output is %d wide, want 1", out)
	}
	var est backfill.Estimator = backfill.RequestTime{}
	switch m.Estimator {
	case "RT", "":
	case "AR":
		est = backfill.ActualRuntime{}
	default:
		return nil, fmt.Errorf("core: unknown estimator %q in model", m.Estimator)
	}
	a := &Agent{Policy: m.Policy, Obs: m.Obs, Est: est}
	a.initBuffers()
	return a, nil
}

// Write serialises the model as JSON.
func (m Model) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(m)
}

// ReadModel parses a model written by Write.
func ReadModel(r io.Reader) (Model, error) {
	var m Model
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return Model{}, fmt.Errorf("core: reading model: %w", err)
	}
	return m, nil
}

// SaveModelFile writes the model to path.
func SaveModelFile(path string, m Model) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadModelFile reads a model from path.
func LoadModelFile(path string) (Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return Model{}, err
	}
	defer f.Close()
	return ReadModel(f)
}
