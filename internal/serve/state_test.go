package serve

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/backfill"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// TestMarshalStateMatchesJSON pins marshalState to json.Marshal byte for
// byte: on a state with every field set (checked by reflection, so a field
// added to State later fails here until the encoder writes it), on one with
// only the required fields, and with strings that need escaping.
func TestMarshalStateMatchesJSON(t *testing.T) {
	j := &trace.Job{ID: 3, Submit: 5, Runtime: 7, Request: 9, Procs: 2, Mem: 4, Priority: -2, User: 8}
	k := &trace.Job{ID: 4, Submit: 6, Runtime: 1, Request: 1, Procs: 1}
	full := &State{
		Version: stateVersion, Name: "a<b>& é", Procs: 64, Mem: 900, SimClock: -10, NextID: 11,
		Queued: []*trace.Job{j, k}, Running: []backfill.Running{{Job: j, Start: 3}, {Job: k, Start: 4}},
		Pending: []*trace.Job{k}, Canceled: []int{1, 2}, Records: []metrics.Record{{Job: j, Start: 1, End: 2}},
		Idem:   map[string]int{"b": 2, "a<": 1, "é": 3, "\xff": 4, "": 5},
		WALGen: 3, WALRecords: 4, HistoryCount: 5,
	}
	v := reflect.ValueOf(full).Elem()
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Fatalf("State.%s is unset in the full state", v.Type().Field(i).Name)
		}
	}
	for _, st := range []*State{full, {Version: stateVersion, Name: "x", Procs: 4}} {
		want, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		got, err := marshalState(st)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("marshalState:\n%s\njson.Marshal:\n%s", got, want)
		}
	}
}
