// Package resultjson writes and reads the two /v1 payloads a sweep
// moves in bulk — sweep responses and evaluate results — without
// reflection. Encoding is byte-identical to encoding/json's output
// with two-space indent (the one encoder setting both pixeld roles
// answer with); decoding parses that canonical form and reports
// anything else as not parsed, so the caller can replay it through
// encoding/json and keep its values and error texts. FuzzResultCodec
// (package api, where the client decodes) holds both halves to
// encoding/json.
package resultjson

import (
	"math"
	"slices"
	"strconv"
	"unicode/utf8"

	"pixel"
)

// AppendSweep appends the indented JSON of a sweep response
// {"points": points, "results": results}, trailing newline included,
// exactly as encoding/json writes api.SweepResponse. It reports false
// on a NaN or infinite float, which encoding/json refuses; dst's
// appended bytes are then garbage.
func AppendSweep(dst []byte, points int, results map[string][]pixel.Result) ([]byte, bool) {
	e := encoder{b: dst, ok: true}
	e.b = append(e.b, "{\n  \"points\": "...)
	e.b = strconv.AppendInt(e.b, int64(points), 10)
	e.b = append(e.b, ",\n  \"results\": "...)
	if results == nil {
		e.b = append(e.b, "null"...)
	} else if len(results) == 0 {
		e.b = append(e.b, "{}"...)
	} else {
		var keyBuf [8]string
		e.b = append(e.b, '{')
		for i, net := range sortedKeys(keyBuf[:0], results) {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.key(2, net)
			e.rows(2, results[net])
		}
		e.newline(1)
		e.b = append(e.b, '}')
	}
	e.b = append(e.b, "\n}\n"...)
	return e.b, e.ok
}

// AppendResult appends the indented JSON of one result, trailing
// newline included, exactly as encoding/json writes a top-level
// pixel.Result (an evaluate body, per_layer and all). It reports false
// on a NaN or infinite float.
func AppendResult(dst []byte, r *pixel.Result) ([]byte, bool) {
	e := encoder{b: dst, ok: true}
	e.result(0, r)
	e.b = append(e.b, '\n')
	return e.b, e.ok
}

// encoder appends JSON at a given indent depth; ok turns false at the
// first non-finite float.
type encoder struct {
	b  []byte
	ok bool
}

// indent holds a newline and enough two-space levels for the deepest
// member written: a per-layer field of a sweep row, at depth 6.
const indent = "\n            "

func (e *encoder) newline(depth int) { e.b = append(e.b, indent[:1+2*depth]...) }

// key starts an object member at depth: newline, indent, key, ": ".
func (e *encoder) key(depth int, k string) {
	e.newline(depth)
	e.b = appendString(e.b, k)
	e.b = append(e.b, ':', ' ')
}

// rows writes a sweep's row slice whose key sits at depth.
func (e *encoder) rows(depth int, rows []pixel.Result) {
	switch {
	case rows == nil:
		e.b = append(e.b, "null"...)
		return
	case len(rows) == 0:
		e.b = append(e.b, "[]"...)
		return
	}
	e.b = append(e.b, '[')
	for i := range rows {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.newline(depth + 1)
		e.result(depth+1, &rows[i])
	}
	e.newline(depth)
	e.b = append(e.b, ']')
}

// result writes r as an object whose braces sit at depth.
func (e *encoder) result(depth int, r *pixel.Result) {
	in := depth + 1
	e.b = append(e.b, '{')
	e.key(in, "network")
	e.b = appendString(e.b, r.Network)
	e.b = append(e.b, ',')
	e.key(in, "design")
	e.b = appendString(e.b, r.Design.String())
	e.b = append(e.b, ',')
	e.key(in, "lanes")
	e.b = strconv.AppendInt(e.b, int64(r.Lanes), 10)
	e.b = append(e.b, ',')
	e.key(in, "bits")
	e.b = strconv.AppendInt(e.b, int64(r.Bits), 10)
	e.b = append(e.b, ',')
	e.key(in, "energy_j")
	e.float(r.EnergyJ)
	e.b = append(e.b, ',')
	e.key(in, "latency_s")
	e.float(r.LatencyS)
	e.b = append(e.b, ',')
	e.key(in, "edp_js")
	e.float(r.EDP)
	e.b = append(e.b, ',')
	e.key(in, "energy_breakdown_j")
	e.breakdown(in, &r.Breakdown)
	if len(r.PerLayer) > 0 {
		e.b = append(e.b, ',')
		e.key(in, "per_layer")
		e.b = append(e.b, '[')
		for i := range r.PerLayer {
			l := &r.PerLayer[i]
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.newline(in + 1)
			e.b = append(e.b, '{')
			e.key(in+2, "name")
			e.b = appendString(e.b, l.Name)
			e.b = append(e.b, ',')
			e.key(in+2, "energy_j")
			e.float(l.EnergyJ)
			e.b = append(e.b, ',')
			e.key(in+2, "latency_s")
			e.float(l.LatencyS)
			e.newline(in + 1)
			e.b = append(e.b, '}')
		}
		e.newline(in)
		e.b = append(e.b, ']')
	}
	e.newline(depth)
	e.b = append(e.b, '}')
}

// breakdownKeys are pixel.Breakdown's JSON keys in field order, which
// is sorted order.
var breakdownKeys = [...]string{"act", "add", "comm", "laser", "mul", "o/e"}

// breakdownFields returns b's fields in breakdownKeys order.
func breakdownFields(b *pixel.Breakdown) [len(breakdownKeys)]*float64 {
	return [...]*float64{&b.Act, &b.Add, &b.Comm, &b.Laser, &b.Mul, &b.OtoE}
}

// breakdown writes b's six members as an object whose key sits at depth.
func (e *encoder) breakdown(depth int, b *pixel.Breakdown) {
	e.b = append(e.b, '{')
	for i, v := range breakdownFields(b) {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.key(depth+1, breakdownKeys[i])
		e.float(*v)
	}
	e.newline(depth)
	e.b = append(e.b, '}')
}

// float writes f as encoding/json does: the shortest round-trip digits,
// in 'f' form for 0 and 1e-6 <= |f| < 1e21 and in 'e' form otherwise,
// with a one-digit negative exponent unpadded (e-7, not e-07).
func (e *encoder) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		e.ok = false
		return
	}
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		e.b = strconv.AppendFloat(e.b, f, 'e', -1, 64)
		if n := len(e.b); n >= 4 && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
			e.b[n-2] = e.b[n-1]
			e.b = e.b[:n-1]
		}
		return
	}
	e.b = strconv.AppendFloat(e.b, f, 'f', -1, 64)
}

// sortedKeys appends m's keys to keys in byte order, as encoding/json
// orders map keys.
func sortedKeys(keys []string, m map[string][]pixel.Result) []string {
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

const hex = "0123456789abcdef"

// appendString appends s as a JSON string escaped as encoding/json
// escapes it: quotes, backslashes and control characters, then <, >
// and &, U+2028 and U+2029 as six-character hex escapes, and each
// byte of invalid UTF-8 as the escaped replacement character U+FFFD.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
		case r == 0x2028 || r == 0x2029:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
