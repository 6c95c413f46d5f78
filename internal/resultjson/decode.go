package resultjson

import (
	"bytes"
	"strconv"

	"pixel"
)

// ParseSweep parses a sweep response body in its canonical form: the
// keys "points" and "results" in that order, each row a result as
// ParseResult takes it, and nothing but JSON whitespace after the
// object. encoding/json decodes every such body into a zero
// api.SweepResponse as these values. It reports false for any other
// body, which the caller replays through encoding/json.
func ParseSweep(body []byte) (points int, results map[string][]pixel.Result, ok bool) {
	p := parser{b: body}
	if !(p.next('{') && p.key("points") && p.integer(&points) && p.next(',') && p.key("results")) {
		return 0, nil, false
	}
	if !p.null() {
		if !p.next('{') {
			return 0, nil, false
		}
		results = make(map[string][]pixel.Result)
		for first := true; !p.next('}'); first = false {
			var net string
			var rows []pixel.Result
			if (!first && !p.next(',')) || !p.str(&net) || !p.next(':') || !p.rows(&rows) {
				return 0, nil, false
			}
			results[net] = rows
		}
	}
	if !p.next('}') || !p.end() {
		return 0, nil, false
	}
	return points, results, true
}

// ParseResult parses one result body in its canonical form: every
// field's exact key in declaration order (per_layer optional and
// last), escape-free printable-ASCII strings, JSON-grammar numbers
// (integers for lanes and bits), a design name Design.UnmarshalText
// accepts, the breakdown's six keys in field order, null only for the
// per-layer slice, and nothing but JSON whitespace after the object.
// encoding/json decodes every such body into a zero pixel.Result as the
// returned value. It reports false for any other body.
func ParseResult(body []byte) (pixel.Result, bool) {
	p := parser{b: body}
	var r pixel.Result
	if !p.result(&r) || !p.end() {
		return pixel.Result{}, false
	}
	return r, true
}

// parser walks a body. names interns the strings it has read (network,
// breakdown and layer names repeat on every row), and design caches
// the last design name parsed.
type parser struct {
	b     []byte
	i     int
	names map[string]string

	designName []byte
	design     pixel.Design
}

// space skips JSON whitespace.
func (p *parser) space() {
	for p.i < len(p.b) {
		if c := p.b[p.i]; c > ' ' || (c != ' ' && c != '\n' && c != '\t' && c != '\r') {
			return
		}
		p.i++
	}
}

// next skips whitespace and consumes c if it comes next.
func (p *parser) next(c byte) bool {
	p.space()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (p *parser) end() bool {
	p.space()
	return p.i == len(p.b)
}

// null consumes a null literal if one comes next.
func (p *parser) null() bool {
	p.space()
	if bytes.HasPrefix(p.b[p.i:], []byte("null")) {
		p.i += len("null")
		return true
	}
	return false
}

// key consumes the object key k, byte for byte, and its colon.
func (p *parser) key(k string) bool {
	if !p.next('"') {
		return false
	}
	rest := p.b[p.i:]
	if len(rest) <= len(k) || string(rest[:len(k)]) != k || rest[len(k)] != '"' {
		return false
	}
	p.i += len(k) + 1
	return p.next(':')
}

// raw consumes an escape-free printable-ASCII string and returns its
// bytes, which alias the body.
func (p *parser) raw() ([]byte, bool) {
	if !p.next('"') {
		return nil, false
	}
	for start := p.i; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; {
		case c == '"':
			p.i++
			return p.b[start : p.i-1], true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// str consumes a string as raw does into *s, interned.
func (p *parser) str(s *string) bool {
	b, ok := p.raw()
	if !ok {
		return false
	}
	if v, ok := p.names[string(b)]; ok {
		*s = v
		return true
	}
	if p.names == nil {
		p.names = make(map[string]string)
	}
	*s = string(b)
	p.names[*s] = *s
	return true
}

// designValue consumes a design name through Design.UnmarshalText.
func (p *parser) designValue(d *pixel.Design) bool {
	b, ok := p.raw()
	if !ok {
		return false
	}
	if p.designName == nil || !bytes.Equal(b, p.designName) {
		if p.design.UnmarshalText(b) != nil {
			return false
		}
		p.designName = b
	}
	*d = p.design
	return true
}

// number consumes a JSON number -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
// and returns its bytes.
func (p *parser) number() ([]byte, bool) {
	p.space()
	b, i := p.b, p.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		if i = digits(b, i+1); b[i-1] == '.' {
			return nil, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return nil, false
		}
		i = j
	}
	s := b[p.i:i]
	p.i = i
	return s, true
}

// digits returns the index past the run of ASCII digits at b[i:].
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// integer consumes an integer that fits int into *v; a fraction or an
// exponent fails strconv.ParseInt, as it fails encoding/json.
func (p *parser) integer(v *int) bool {
	s, ok := p.number()
	if !ok {
		return false
	}
	n, err := strconv.ParseInt(string(s), 10, strconv.IntSize)
	*v = int(n)
	return err == nil
}

// float consumes a number that fits float64 into *v.
func (p *parser) float(v *float64) bool {
	s, ok := p.number()
	if !ok {
		return false
	}
	f, err := strconv.ParseFloat(string(s), 64)
	*v = f
	return err == nil
}

// result consumes one result object into the zero *r.
func (p *parser) result(r *pixel.Result) bool {
	ok := p.next('{') &&
		p.key("network") && p.str(&r.Network) && p.next(',') &&
		p.key("design") && p.designValue(&r.Design) && p.next(',') &&
		p.key("lanes") && p.integer(&r.Lanes) && p.next(',') &&
		p.key("bits") && p.integer(&r.Bits) && p.next(',') &&
		p.key("energy_j") && p.float(&r.EnergyJ) && p.next(',') &&
		p.key("latency_s") && p.float(&r.LatencyS) && p.next(',') &&
		p.key("edp_js") && p.float(&r.EDP) && p.next(',') &&
		p.key("energy_breakdown_j") && p.breakdown(&r.Breakdown)
	if ok && p.next(',') {
		ok = p.key("per_layer") && p.layers(&r.PerLayer)
	}
	return ok && p.next('}')
}

// breakdown consumes a breakdown object with its six keys exactly, in
// field order, into *b. Anything else — null, a missing, extra,
// repeated or reordered key — is left to encoding/json.
func (p *parser) breakdown(b *pixel.Breakdown) bool {
	if !p.next('{') {
		return false
	}
	for i, v := range breakdownFields(b) {
		if (i > 0 && !p.next(',')) || !p.key(breakdownKeys[i]) || !p.float(v) {
			return false
		}
	}
	return p.next('}')
}

// rows consumes an array of result objects, or null, into the nil *rows.
func (p *parser) rows(rows *[]pixel.Result) bool {
	if p.null() {
		return true
	}
	if !p.next('[') {
		return false
	}
	*rows = []pixel.Result{}
	for first := true; !p.next(']'); first = false {
		if !first && !p.next(',') {
			return false
		}
		*rows = append(*rows, pixel.Result{})
		if !p.result(&(*rows)[len(*rows)-1]) {
			return false
		}
	}
	return true
}

// layers consumes an array of layer objects, or null, into the nil *ls.
func (p *parser) layers(ls *[]pixel.LayerResult) bool {
	if p.null() {
		return true
	}
	if !p.next('[') {
		return false
	}
	*ls = []pixel.LayerResult{}
	for first := true; !p.next(']'); first = false {
		var l pixel.LayerResult
		ok := (first || p.next(',')) && p.next('{') &&
			p.key("name") && p.str(&l.Name) && p.next(',') &&
			p.key("energy_j") && p.float(&l.EnergyJ) && p.next(',') &&
			p.key("latency_s") && p.float(&l.LatencyS) && p.next('}')
		if !ok {
			return false
		}
		*ls = append(*ls, l)
	}
	return true
}
