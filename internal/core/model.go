package core

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/backfill"
	"repro/internal/nn"
)

// Model is the serialisable form of a trained RLBackfilling agent, carrying
// enough metadata to reproduce Table 5's "RL-X applied to Y" protocol.
type Model struct {
	Policy     *nn.MLP   `json:"policy"`
	Value      *nn.MLP   `json:"value"`
	Obs        ObsConfig `json:"obs"`
	Estimator  string    `json:"estimator"`   // "RT" or "AR"
	BasePolicy string    `json:"base_policy"` // policy used during training
	TrainedOn  string    `json:"trained_on"`  // trace name
	Epochs     int       `json:"epochs"`
}

// ExportModel captures the agent's networks and metadata.
func ExportModel(a *Agent, basePolicy, trainedOn string, epochs int) Model {
	estName := "RT"
	if _, ok := a.Est.(backfill.ActualRuntime); ok {
		estName = "AR"
	}
	return Model{
		Policy:     a.Policy,
		Value:      a.Value,
		Obs:        a.Obs,
		Estimator:  estName,
		BasePolicy: basePolicy,
		TrainedOn:  trainedOn,
		Epochs:     epochs,
	}
}

// Agent reconstructs a ready-to-use greedy agent from the model.
func (m Model) Agent() (*Agent, error) {
	if m.Policy == nil || m.Value == nil {
		return nil, fmt.Errorf("core: model is missing networks")
	}
	if m.Policy.Sizes[0] != JobFeatures {
		return nil, fmt.Errorf("core: model kernel expects %d features, library uses %d",
			m.Policy.Sizes[0], JobFeatures)
	}
	if m.Value.Sizes[0] != m.Obs.FlatDim() {
		return nil, fmt.Errorf("core: model value input %d does not match obs dim %d",
			m.Value.Sizes[0], m.Obs.FlatDim())
	}
	// each network scores with its one output: a row's kernel score, V(s)
	out := func(n *nn.MLP) int { return n.Sizes[len(n.Sizes)-1] }
	if out(m.Policy) != 1 || out(m.Value) != 1 {
		return nil, fmt.Errorf("core: model policy and value outputs are %d and %d wide, want 1",
			out(m.Policy), out(m.Value))
	}
	var est backfill.Estimator = backfill.RequestTime{}
	switch m.Estimator {
	case "RT", "":
	case "AR":
		est = backfill.ActualRuntime{}
	default:
		return nil, fmt.Errorf("core: unknown estimator %q in model", m.Estimator)
	}
	a := &Agent{Policy: m.Policy, Value: m.Value, Obs: m.Obs, Est: est}
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
