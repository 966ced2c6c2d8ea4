package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"

	"podium/internal/core"
	"podium/internal/explain"
	"podium/internal/groups"
)

// Hooks for the shard coordinator (internal/shard). The coordinator serves
// its endpoints from a Server's route table (Handle) and must speak
// byte-compatible request and response surfaces — same parameter check
// (CheckSelect), same error envelope, same selection JSON — so the pieces of
// that surface it reuses are exported here rather than duplicated there.
// (The dependency points this way by necessity: client imports server, so
// server can never import the coordinator's package.)

// Exported error codes of the unified envelope, for out-of-package handlers.
const (
	CodeInvalidArgument = codeInvalidArgument
	CodeUnavailable     = codeUnavailable
	CodeInternal        = codeInternal
)

// WriteJSON writes v as the standard JSON response (honoring ?pretty=1).
func WriteJSON(w http.ResponseWriter, r *http.Request, status int, v interface{}) {
	writeJSON(w, r, status, v)
}

// WriteJSONRaw writes pre-marshaled JSON bytes as they are (no trailing
// newline is added). A failed or short body write aborts the connection
// after logging, so the client sees a transport error rather than a
// truncated 200.
func WriteJSONRaw(w http.ResponseWriter, status int, data []byte) {
	writeJSONRaw(w, status, data)
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
// byte).
//
// Without extra fields the body is the single-node select body. extra adds
// the coordinator's fields and accepts exactly three keys — "degraded",
// "shards" and "trace" — answering any other key with an error. With extras
// the body is a clusterSelectJSON: the same fields with every key in
// ascending order at every level, the order coordinator bodies have always
// had. Each extra is encoded as its own value, so struct-typed extras keep
// their declared field order; a nil value omits its field. User names and
// group labels are encoded as given; they reach the server as JSON and are
// therefore valid UTF-8.
func (sn *Snapshot) RenderSelection(ws groups.WeightScheme, cs groups.CoverageScheme, budget, topK int, rl *core.Rule, res *core.Result, extra map[string]interface{}) ([]byte, error) {
	inst := sn.Instance(ws, cs, budget)
	rl = rl.OrDefault()
	if len(extra) == 0 {
		return json.Marshal(buildSelectResponse(inst, res, nil, rl, topK))
	}
	var body clusterSelectJSON
	for k, v := range extra {
		switch k {
		case "degraded":
			body.Degraded = v
		case "shards":
			body.Shards = v
		case "trace":
			body.Trace = v
		default:
			return nil, fmt.Errorf("server: RenderSelection: unsupported extra field %q (accepted: degraded, shards, trace)", k)
		}
	}
	if !rl.IsDefault() {
		body.Rule = rl.Name()
	}
	rep := explain.NewReport(inst, res, topK)
	body.Score = inst.Score(res.Users)
	body.TopK, body.TopKCovered = rep.TopK, rep.TopKCovered
	if len(rep.Users) > 0 { // an empty panel encodes as null
		body.Users = make([]clusterUserJSON, len(rep.Users))
	}
	for i, ue := range rep.Users {
		body.Users[i] = clusterUserJSON{ID: int(ue.User), Marginal: ue.Marginal, Name: ue.Name, Groups: topGroupLabels(ue)}
	}
	body.Groups = make([]clusterGroupJSON, len(rep.Groups))
	for i, sg := range rep.Groups {
		body.Groups[i] = clusterGroupJSON{
			Actual:   sg.Actual,
			Covered:  sg.Covered,
			ID:       int(sg.Group.ID),
			Label:    sg.Group.Label,
			Required: sg.Required,
			Weight:   sg.Group.Weight,
		}
	}
	return json.Marshal(body)
}

// clusterSelectJSON is the coordinator's select body: selectResponse's
// fields and the coordinator's extras, declared in ascending key order. The
// extras are interface values so each encodes as its own type; an extra not
// given stays nil and is omitted. priority_score and standard_score are
// absent: a merge carries no feedback, and selectResponse omits both when
// zero.
type clusterSelectJSON struct {
	Degraded    interface{}        `json:"degraded,omitempty"`
	Groups      []clusterGroupJSON `json:"groups"`
	Rule        string             `json:"rule,omitempty"`
	Score       float64            `json:"score"`
	Shards      interface{}        `json:"shards,omitempty"`
	TopK        int                `json:"top_k"`
	TopKCovered int                `json:"top_k_covered"`
	Trace       interface{}        `json:"trace,omitempty"`
	Users       []clusterUserJSON  `json:"users"`
}

// clusterUserJSON is selectedUserJSON in ascending key order.
type clusterUserJSON struct {
	ID       int      `json:"id"`
	Marginal float64  `json:"marginal"`
	Name     string   `json:"name"`
	Groups   []string `json:"top_groups"`
}

// clusterGroupJSON is subsetGroupJSON in ascending key order.
type clusterGroupJSON struct {
	Actual   int     `json:"actual"`
	Covered  bool    `json:"covered"`
	ID       int     `json:"id"`
	Label    string  `json:"label"`
	Required int     `json:"required"`
	Weight   float64 `json:"weight"`
}
