package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"

	"podium/internal/core"
	"podium/internal/groups"
)

// Hooks for the shard coordinator (internal/shard). The coordinator fronts a
// Server and must speak byte-compatible request and response surfaces —
// same scheme strings, same error envelope, same selection JSON — so the
// pieces of that surface it reuses are re-exported here rather than
// duplicated there. (The dependency points this way by necessity: client
// imports server, so server can never import the coordinator's package.)

// ParseWeights parses a request weight-scheme string ("", "iden", "lbs",
// "ebs", case-insensitive; empty selects LBS).
func ParseWeights(s string) (groups.WeightScheme, error) { return parseWeights(s) }

// ParseCoverage parses a request coverage-scheme string ("", "single",
// "prop"; empty selects Single).
func ParseCoverage(s string) (groups.CoverageScheme, error) { return parseCoverage(s) }

// ParseRule parses a request rule string against the core registry
// (case-insensitive; empty selects the default coverage rule), with the same
// error message handleSelect produces for unknown names.
func ParseRule(s string) (*core.Rule, error) { return parseRule(s) }

// Exported error codes of the unified envelope, for out-of-package handlers.
const (
	CodeInvalidArgument  = codeInvalidArgument
	CodeMethodNotAllowed = codeMethodNotAllowed
	CodeUnavailable      = codeUnavailable
	CodeInternal         = codeInternal
)

// WriteJSON writes v as the standard JSON response (honoring ?pretty=1).
func WriteJSON(w http.ResponseWriter, r *http.Request, status int, v interface{}) {
	writeJSON(w, r, status, v)
}

// WriteError writes the unified error envelope.
func WriteError(w http.ResponseWriter, r *http.Request, status int, code, format string, args ...interface{}) {
	writeError(w, r, status, code, format, args...)
}

// CheckFinite rejects a select whose response would carry a non-finite
// number, which encoding/json refuses. EBS weights (B+1)^rank overflow
// float64 past ~300 groups: the selection stays exact (rank vectors), but its
// score, marginals and group weights would be +Inf. fb, when non-nil, is
// validated and checked on the tiered instance customization builds. Iden and
// LBS scores are bounded by the link count, so only EBS is checked. Handlers
// answer the error with 400 before selecting.
func (sn *Snapshot) CheckFinite(ws groups.WeightScheme, cs groups.CoverageScheme, budget int, fb *core.Feedback) error {
	if ws != groups.WeightEBS {
		return nil
	}
	inst := sn.Instance(ws, cs, budget)
	if fb != nil {
		if err := fb.Validate(inst.Index); err != nil {
			return err
		}
		inst = core.CustomInstance(inst, *fb)
	}
	if s := inst.MaxScore(); math.IsInf(s, 0) || math.IsNaN(s) {
		return fmt.Errorf("EBS weights overflow float64 on this index (%d groups): the response's score, marginals and group weights would be infinite; use LBS or Iden weights", inst.Index.NumGroups())
	}
	return nil
}

// RenderSelection marshals the standard select-response JSON for an
// externally computed selection result — the coordinator's merge round,
// whose greedy ran through core directly rather than through handleSelect.
// rl names the rule the selection ran under (nil or default omits the
// response's rule field, matching single-node default responses byte for
// byte). extra fields are spliced into the top-level object (shard epochs,
// the degraded flag); a key colliding with a standard field overrides it.
func (sn *Snapshot) RenderSelection(ws groups.WeightScheme, cs groups.CoverageScheme, budget, topK int, rl *core.Rule, res *core.Result, extra map[string]interface{}) ([]byte, error) {
	inst := sn.Instance(ws, cs, budget)
	resp := buildSelectResponse(inst, res, nil, topK)
	if rl = rl.OrDefault(); !rl.IsDefault() {
		resp.Rule = rl.Name()
	}
	data, err := json.Marshal(resp)
	if err != nil {
		return nil, err
	}
	if len(extra) == 0 {
		return data, nil
	}
	var m map[string]interface{}
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, err
	}
	for k, v := range extra {
		m[k] = v
	}
	return json.Marshal(m)
}
