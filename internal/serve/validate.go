package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
)

// Submission validation. The limits are deliberately generous — they exist to
// reject garbage (negative sizes, NaN-ish giants that overflow downstream
// arithmetic, megabyte idempotency keys), not to encode site policy. Both the
// HTTP decode path and the direct Scheduler.Submit API enforce them, so a
// malformed request can never reach the WAL: replay would otherwise faithfully
// reproduce the poison on every recovery.
const (
	// MaxProcs bounds a single job's processor request (2^24; the engine's
	// free-list arithmetic stays far from int overflow).
	MaxProcs = 1 << 24
	// MaxMem bounds a job's memory request in abstract units.
	MaxMem = 1 << 40
	// MaxRuntime bounds runtime and the user estimate, in simulated seconds
	// (2^40 ≈ 35k simulated years; anything larger is garbage, and sums of
	// valid times still fit comfortably in int64).
	MaxRuntime = 1 << 40
	// MaxPriority bounds the priority tier; tiers run from 0 (the default)
	// to MaxPriority, higher is more urgent.
	MaxPriority = 1 << 20
	// MaxIdemKey bounds the idempotency key length in bytes (it is persisted
	// in every snapshot and WAL submit record).
	MaxIdemKey = 256
	// maxRequestBody bounds the JSON body of a submission.
	maxRequestBody = 1 << 16
)

// ValidationError reports a rejected field. The HTTP layer renders it as a
// structured 400 body: {"error": "...", "field": "procs"}.
type ValidationError struct {
	Field string `json:"field"`
	Msg   string `json:"error"`
}

func (e *ValidationError) Error() string {
	return fmt.Sprintf("serve: invalid %s: %s", e.Field, e.Msg)
}

func invalidf(field, format string, args ...any) *ValidationError {
	return &ValidationError{Field: field, Msg: fmt.Sprintf(format, args...)}
}

// Validate checks a submission against the admission limits. Whether the job
// fits the configured machine is checked by fitsMachine.
func (req *JobRequest) Validate() error {
	switch {
	case req.Procs <= 0:
		return invalidf("procs", "must be at least 1, got %d", req.Procs)
	case req.Procs > MaxProcs:
		return invalidf("procs", "must be at most %d, got %d", MaxProcs, req.Procs)
	}
	switch {
	case req.Mem < 0:
		return invalidf("mem", "must not be negative, got %d", req.Mem)
	case req.Mem > MaxMem:
		return invalidf("mem", "must be at most %d, got %d", MaxMem, req.Mem)
	}
	switch {
	case req.Runtime <= 0:
		return invalidf("runtime", "must be at least 1 second, got %d", req.Runtime)
	case req.Runtime > MaxRuntime:
		return invalidf("runtime", "must be at most %d, got %d", MaxRuntime, req.Runtime)
	}
	switch {
	case req.Request < 0:
		return invalidf("request", "must not be negative (0 means runtime), got %d", req.Request)
	case req.Request > MaxRuntime:
		return invalidf("request", "must be at most %d, got %d", MaxRuntime, req.Request)
	}
	if req.Priority < 0 || req.Priority > MaxPriority {
		return invalidf("priority", "must be within [0, %d], got %d", MaxPriority, req.Priority)
	}
	if len(req.IdemKey) > MaxIdemKey {
		return invalidf("idempotency-key", "must be at most %d bytes, got %d", MaxIdemKey, len(req.IdemKey))
	}
	return nil
}

// fitsMachine rejects a request wider than the machine: more processors than
// it has, or more memory than its capacity when the memory dimension is on
// (mem > 0). The engine would refuse such a job; checking here names the
// field and happens before a job ID is assigned.
func (req *JobRequest) fitsMachine(procs, mem int) error {
	if req.Procs > procs {
		return invalidf("procs", "must be at most the machine size %d, got %d", procs, req.Procs)
	}
	if mem > 0 && req.Mem > mem {
		return invalidf("mem", "must be at most the machine capacity %d, got %d", mem, req.Mem)
	}
	return nil
}

// decodeJobRequest reads and validates a submission body. Every failure mode
// maps to a *ValidationError so the HTTP layer answers 400 with a structured
// body instead of a bare string: oversized bodies, trailing garbage, unknown
// fields (likely a typo'd field silently ignored otherwise), JSON numbers
// that are not integers or overflow int64 (NaN and Inf are not JSON and fail
// here too), and out-of-range values.
func decodeJobRequest(w http.ResponseWriter, r *http.Request) (JobRequest, error) {
	var req JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return JobRequest{}, decodeError(err)
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return JobRequest{}, invalidf("body", "trailing data after the JSON object")
	}
	req.IdemKey = r.Header.Get("Idempotency-Key")
	if err := req.Validate(); err != nil {
		return JobRequest{}, err
	}
	return req, nil
}

// decodeError converts a json decode failure into a field-scoped
// ValidationError where the standard library lets us.
func decodeError(err error) error {
	var typeErr *json.UnmarshalTypeError
	var syntaxErr *json.SyntaxError
	var maxErr *http.MaxBytesError
	switch {
	case errors.As(err, &typeErr):
		field := typeErr.Field
		if field == "" {
			field = "body"
		}
		return invalidf(field, "cannot parse %s as %s", typeErr.Value, typeErr.Type)
	case errors.As(err, &syntaxErr):
		return invalidf("body", "malformed JSON at offset %d", syntaxErr.Offset)
	case errors.As(err, &maxErr):
		return invalidf("body", "request body exceeds %d bytes", maxRequestBody)
	case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF):
		return invalidf("body", "empty or truncated JSON body")
	default:
		return invalidf("body", "%v", err)
	}
}
