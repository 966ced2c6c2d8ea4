package client

import (
	"bytes"
	"encoding/json"
	"strconv"
	"unicode/utf8"
)

// decodeSelection replaces *sel with the value json.Unmarshal gives for data
// decoded into a zero Selection, and returns the error it gives.
//
// A select body in the single-node shape is read directly, without
// reflection: a shard leg is a 1.1 MB body that json.Unmarshal takes about
// four times longer to decode. The direct reader accepts an input only where its
// result is json.Unmarshal's: the keys it knows under their exact names,
// each at most once per object; numbers its field's type parses; no null on
// a scalar; valid UTF-8; nothing but whitespace after the body. Anything else
// — a coordinator's or traced body among them — is decoded by
// json.Unmarshal into a zeroed value, so every value and every error are
// encoding/json's.
func decodeSelection(data []byte, sel *Selection) error {
	var s Selection
	if d := (selectionDecoder{data: data}); d.selection(&s) {
		*sel = s
		return nil
	}
	*sel = Selection{}
	return json.Unmarshal(data, sel)
}

// selectionDecoder reads one select body from data. It never reports an
// error: on any input it does not take, it sets fail, and the caller hands
// the whole body to json.Unmarshal.
type selectionDecoder struct {
	data []byte
	i    int
	fail bool
}

// selection reads the whole body into s and reports whether it was taken.
func (d *selectionDecoder) selection(s *Selection) bool {
	var seen uint8
	if !d.open('{') {
		return false
	}
	for n := 0; d.more(n, '}'); n++ {
		switch string(d.key()) {
		case "users":
			d.once(&seen, 1<<0)
			s.Users = d.users()
		case "score":
			d.once(&seen, 1<<1)
			s.Score = d.float()
		case "rule":
			d.once(&seen, 1<<2)
			s.Rule = d.str()
		case "top_k_covered":
			d.once(&seen, 1<<3)
			s.TopKCovered = d.int()
		case "top_k":
			d.once(&seen, 1<<4)
			s.TopK = d.int()
		case "priority_score":
			d.once(&seen, 1<<5)
			s.PriorityScore = d.float()
		case "standard_score":
			d.once(&seen, 1<<6)
			s.StandardScore = d.float()
		case "groups":
			d.once(&seen, 1<<7)
			s.Groups = d.groups()
		default:
			d.fail = true
		}
	}
	d.space()
	return !d.fail && d.i == len(d.data)
}

func (d *selectionDecoder) users() []SelectedUser {
	if !d.array() {
		return nil
	}
	us := []SelectedUser{}
	for n := 0; d.more(n, ']'); n++ {
		var u SelectedUser
		var seen uint8
		if !d.open('{') {
			return nil
		}
		for m := 0; d.more(m, '}'); m++ {
			switch string(d.key()) {
			case "id":
				d.once(&seen, 1<<0)
				u.ID = d.int()
			case "name":
				d.once(&seen, 1<<1)
				u.Name = d.str()
			case "marginal":
				d.once(&seen, 1<<2)
				u.Marginal = d.float()
			case "top_groups":
				d.once(&seen, 1<<3)
				u.TopGroups = d.strs()
			default:
				d.fail = true
			}
		}
		us = append(us, u)
	}
	return us
}

// minGroupRow is the length of the shortest compact group row,
// {"id":0,"label":"","weight":0,"required":0,"actual":0,"covered":true}.
const minGroupRow = 69

func (d *selectionDecoder) groups() []GroupCoverage {
	if !d.array() {
		return nil
	}
	// Size the rows up front: a body lists every group of the index, and
	// growing the slice by appends allocates several times its final size.
	// Each row opens with '{' and takes at least minGroupRow bytes, so the
	// smaller count bounds the rows of a single-node body, whose groups
	// come last.
	rest := d.data[d.i:]
	gs := make([]GroupCoverage, 0, min(bytes.Count(rest, []byte{'{'}), len(rest)/minGroupRow+1))
	for n := 0; d.more(n, ']'); n++ {
		var g GroupCoverage
		var seen uint8
		if !d.open('{') {
			return nil
		}
		for m := 0; d.more(m, '}'); m++ {
			switch string(d.key()) {
			case "id":
				d.once(&seen, 1<<0)
				g.ID = d.int()
			case "label":
				d.once(&seen, 1<<1)
				g.Label = d.str()
			case "weight":
				d.once(&seen, 1<<2)
				g.Weight = d.float()
			case "required":
				d.once(&seen, 1<<3)
				g.Required = d.int()
			case "actual":
				d.once(&seen, 1<<4)
				g.Actual = d.int()
			case "covered":
				d.once(&seen, 1<<5)
				g.Covered = d.bool()
			default:
				d.fail = true
			}
		}
		gs = append(gs, g)
	}
	return gs
}

func (d *selectionDecoder) strs() []string {
	if !d.array() {
		return nil
	}
	ss := []string{}
	for n := 0; d.more(n, ']'); n++ {
		ss = append(ss, d.str())
	}
	return ss
}

// array consumes the '[' that opens an array and reports whether one did; a
// null in its place reports false, any other value fails the body.
func (d *selectionDecoder) array() bool {
	return !d.null() && d.open('[')
}

// once marks a key's bit in seen; a key seen before fails the body, since
// json.Unmarshal merges a repeated array into the first one's elements.
func (d *selectionDecoder) once(seen *uint8, bit uint8) {
	if *seen&bit != 0 {
		d.fail = true
	}
	*seen |= bit
}

// space skips JSON whitespace.
func (d *selectionDecoder) space() {
	for d.i < len(d.data) {
		switch d.data[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// open consumes c, the opening byte of a value, after any whitespace.
func (d *selectionDecoder) open(c byte) bool {
	d.space()
	if d.fail || d.i >= len(d.data) || d.data[d.i] != c {
		d.fail = true
		return false
	}
	d.i++
	return true
}

// more reports whether another member or element follows in a container
// whose opening byte has been consumed and which holds n items so far. It
// consumes the separating comma, or the closing byte when it reports false.
func (d *selectionDecoder) more(n int, closer byte) bool {
	d.space()
	if d.fail || d.i >= len(d.data) {
		d.fail = true
		return false
	}
	if d.data[d.i] == closer {
		d.i++
		return false
	}
	if n == 0 {
		return true
	}
	if d.data[d.i] != ',' {
		d.fail = true
		return false
	}
	d.i++
	return true
}

// key reads a member name and its colon. A name with an escape or a byte
// outside printable ASCII names no field here, so it fails the body.
func (d *selectionDecoder) key() []byte {
	if !d.open('"') {
		return nil
	}
	start := d.i
	for d.i < len(d.data) {
		c := d.data[d.i]
		if c == '"' {
			k := d.data[start:d.i]
			d.i++
			if !d.open(':') {
				return nil
			}
			return k
		}
		if c == '\\' || c < 0x20 || c >= 0x80 {
			break
		}
		d.i++
	}
	d.fail = true
	return nil
}

// literal consumes lit if it comes next.
func (d *selectionDecoder) literal(lit string) bool {
	d.space()
	if d.i < len(d.data) && bytes.HasPrefix(d.data[d.i:], []byte(lit)) {
		d.i += len(lit)
		return true
	}
	return false
}

// null consumes a null literal if one comes next.
func (d *selectionDecoder) null() bool { return d.literal("null") }

// str reads a string. One holding an escape is unquoted by encoding/json,
// token by token; invalid UTF-8, which json.Unmarshal would replace, fails
// the body.
func (d *selectionDecoder) str() string {
	if !d.open('"') {
		return ""
	}
	start := d.i
	escaped, ascii := false, true
	for d.i < len(d.data) {
		c := d.data[d.i]
		switch {
		case c == '"':
			raw := d.data[start:d.i]
			d.i++
			if !ascii && !utf8.Valid(raw) {
				d.fail = true
				return ""
			}
			if !escaped {
				return string(raw)
			}
			var s string
			if json.Unmarshal(d.data[start-1:d.i], &s) != nil {
				d.fail = true
			}
			return s
		case c == '\\':
			if d.i+1 == len(d.data) {
				d.fail = true
				return ""
			}
			escaped = true
			d.i++ // the escaped byte cannot end the string
		case c < 0x20:
			d.fail = true
			return ""
		case c >= 0x80:
			ascii = false
		}
		d.i++
	}
	d.fail = true
	return ""
}

// number reads a token in JSON's number grammar.
func (d *selectionDecoder) number() []byte {
	d.space()
	start := d.i
	if d.i < len(d.data) && d.data[d.i] == '-' {
		d.i++
	}
	switch {
	case d.i < len(d.data) && d.data[d.i] == '0':
		d.i++
	case !d.digits():
		d.fail = true
		return nil
	}
	if d.i < len(d.data) && d.data[d.i] == '.' {
		d.i++
		if !d.digits() {
			d.fail = true
			return nil
		}
	}
	if d.i < len(d.data) && (d.data[d.i] == 'e' || d.data[d.i] == 'E') {
		d.i++
		if d.i < len(d.data) && (d.data[d.i] == '+' || d.data[d.i] == '-') {
			d.i++
		}
		if !d.digits() {
			d.fail = true
			return nil
		}
	}
	return d.data[start:d.i]
}

// digits consumes a run of decimal digits and reports whether it was
// non-empty.
func (d *selectionDecoder) digits() bool {
	start := d.i
	for d.i < len(d.data) && d.data[d.i] >= '0' && d.data[d.i] <= '9' {
		d.i++
	}
	return d.i > start
}

// int reads an int field as json.Unmarshal does: strconv.ParseInt on the
// token, so a fraction, an exponent or an out-of-range value fails.
func (d *selectionDecoder) int() int {
	tok := d.number()
	if d.fail {
		return 0
	}
	n, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	if err != nil {
		d.fail = true
	}
	return int(n)
}

// float reads a float64 field as json.Unmarshal does: strconv.ParseFloat on
// the token, so a value beyond float64's range fails.
func (d *selectionDecoder) float() float64 {
	tok := d.number()
	if d.fail {
		return 0
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		d.fail = true
	}
	return f
}

func (d *selectionDecoder) bool() bool {
	switch {
	case d.literal("true"):
		return true
	case !d.literal("false"):
		d.fail = true
	}
	return false
}
