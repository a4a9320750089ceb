package nn

import (
	"encoding/json"
	"fmt"
	"io"
)

// mlpJSON is the stable on-disk form of an MLP. The file lists each layer's
// weights one output after another (w[l][k*in+j] connects input j to output
// k), the transpose of the input-major rows held in memory.
type mlpJSON struct {
	Sizes []int       `json:"sizes"`
	Act   Activation  `json:"act"`
	W     [][]float64 `json:"w"`
	B     [][]float64 `json:"b"`
}

// MarshalJSON implements json.Marshaler.
func (m *MLP) MarshalJSON() ([]byte, error) {
	j := mlpJSON{Sizes: m.Sizes, Act: m.Act}
	for l := range m.W {
		j.W = append(j.W, m.W[l].T().Data)
		j.B = append(j.B, m.B[l])
	}
	return json.Marshal(j)
}

// UnmarshalJSON implements json.Unmarshaler.
func (m *MLP) UnmarshalJSON(data []byte) error {
	var j mlpJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	if len(j.Sizes) < 2 {
		return fmt.Errorf("nn: serialized MLP has %d sizes", len(j.Sizes))
	}
	if len(j.W) != len(j.Sizes)-1 || len(j.B) != len(j.Sizes)-1 {
		return fmt.Errorf("nn: serialized MLP layer count mismatch")
	}
	switch j.Act {
	case ReLU, Tanh, Identity:
	default:
		return fmt.Errorf("nn: serialized MLP has unknown activation %q", j.Act)
	}
	m.Sizes = j.Sizes
	m.Act = j.Act
	m.W = nil
	m.B = nil
	for l := 0; l < len(j.Sizes)-1; l++ {
		in, out := j.Sizes[l], j.Sizes[l+1]
		if in <= 0 || out <= 0 || len(j.W[l]) != in*out || len(j.B[l]) != out {
			return fmt.Errorf("nn: serialized MLP layer %d has wrong shape", l)
		}
		m.W = append(m.W, (&Mat{Rows: out, Cols: in, Data: j.W[l]}).T())
		m.B = append(m.B, j.B[l])
	}
	return nil
}

// Save writes the network as JSON.
func (m *MLP) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(m)
}

// LoadMLP reads a network saved with Save.
func LoadMLP(r io.Reader) (*MLP, error) {
	m := &MLP{}
	dec := json.NewDecoder(r)
	if err := dec.Decode(m); err != nil {
		return nil, fmt.Errorf("nn: loading MLP: %w", err)
	}
	return m, nil
}
