package httpx

import (
	"bytes"
	"io"
	"math"
	"sync"

	"pixel/api"
)

// bodyBufs recycles the buffers infer bodies are read into; a parsed
// request keeps nothing of its buffer.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// decodeInfer is decodeStrict for an infer body without reflection on
// the common case: it reads the whole (bounded) body and parses it
// with parseInfer. A body outside parseInfer's canonical subset — and
// any body whose read failed — is replayed through decodeStrict, so
// every result and every error text is exactly decodeStrict's
// (FuzzInferBody pins the two together).
func decodeInfer(r io.Reader, dst *api.InferRequest) error {
	buf := bodyBufs.Get().(*bytes.Buffer)
	defer bodyBufs.Put(buf)
	buf.Reset()
	if _, err := buf.ReadFrom(r); err == nil && parseInfer(buf.Bytes(), dst) {
		return nil
	}
	return decodeStrict(io.MultiReader(bytes.NewReader(buf.Bytes()), r), dst)
}

// parseInfer parses the canonical subset of infer bodies into dst and
// reports whether body was in it; dst is untouched when it was not.
// The subset: one object whose keys are exactly "network" and
// "images", each at most once; network an escape-free printable-ASCII
// string; images an array of arrays of integers -?(0|[1-9][0-9]*) that
// fit int64; JSON whitespace anywhere, and nothing but whitespace after
// the object. encoding/json decodes every such body to the same value.
// All images share one flat backing array sized from the body length
// (every value but an array's last needs a digit and a comma).
func parseInfer(body []byte, dst *api.InferRequest) bool {
	p := inferParser{b: body}
	var (
		network           string
		images            [][]int64
		hasNet, hasImages bool
	)
	if !p.next('{') {
		return false
	}
	if !p.next('}') {
		for {
			key, ok := p.str()
			if !ok || !p.next(':') {
				return false
			}
			switch {
			case key == "network" && !hasNet:
				if network, ok = p.str(); !ok {
					return false
				}
				hasNet = true
			case key == "images" && !hasImages:
				if images, ok = p.images(); !ok {
					return false
				}
				hasImages = true
			default:
				return false
			}
			if p.next('}') {
				break
			}
			if !p.next(',') {
				return false
			}
		}
	}
	p.space()
	if p.i != len(body) {
		return false
	}
	if hasNet {
		dst.Network = network
	}
	if hasImages {
		dst.Images = images
	}
	return true
}

// inferParser walks a body for parseInfer.
type inferParser struct {
	b []byte
	i int
}

// space skips JSON whitespace.
func (p *inferParser) space() {
	for p.i < len(p.b) && isSpace(p.b[p.i]) {
		p.i++
	}
}

// next skips whitespace and consumes c if it comes next.
func (p *inferParser) next(c byte) bool {
	p.space()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// str consumes an escape-free printable-ASCII string.
func (p *inferParser) str() (string, bool) {
	if !p.next('"') {
		return "", false
	}
	start := p.i
	for ; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; {
		case c == '"':
			s := string(p.b[start:p.i])
			p.i++
			return s, true
		case c < 0x20 || c > 0x7e || c == '\\':
			return "", false
		}
	}
	return "", false
}

// images consumes an array of integer arrays into one flat store.
func (p *inferParser) images() ([][]int64, bool) {
	if !p.next('[') {
		return nil, false
	}
	images := [][]int64{}
	if p.next(']') {
		return images, true
	}
	flat := make([]int64, 0, len(p.b)/2+1)
	for {
		if !p.next('[') {
			return nil, false
		}
		start := len(flat)
		if !p.next(']') {
			var ok bool
			if flat, ok = p.ints(flat); !ok {
				return nil, false
			}
		}
		images = append(images, flat[start:len(flat):len(flat)])
		if p.next(']') {
			return images, true
		}
		if !p.next(',') {
			return nil, false
		}
	}
}

// ints consumes the comma-separated integers of a non-empty array and
// its closing bracket, appending them to flat. Each must match
// -?(0|[1-9][0-9]*) and fit int64; at most 19 digits keeps the
// accumulation inside uint64.
func (p *inferParser) ints(flat []int64) ([]int64, bool) {
	b, i := p.b, p.i
	for {
		for i < len(b) && isSpace(b[i]) {
			i++
		}
		neg := i < len(b) && b[i] == '-'
		if neg {
			i++
		}
		start := i
		var u uint64
		for ; i < len(b); i++ {
			d := b[i] - '0'
			if d > 9 {
				break
			}
			u = u*10 + uint64(d)
		}
		digits := i - start
		if digits == 0 || digits > 19 || (digits > 1 && b[start] == '0') {
			return flat, false
		}
		switch {
		case !neg && u <= math.MaxInt64:
			flat = append(flat, int64(u))
		case neg && u <= 1<<63:
			flat = append(flat, -int64(u))
		default:
			return flat, false
		}
		for i < len(b) && isSpace(b[i]) {
			i++
		}
		if i == len(b) {
			return flat, false
		}
		i++
		switch b[i-1] {
		case ',':
		case ']':
			p.i = i
			return flat, true
		default:
			return flat, false
		}
	}
}

// isSpace reports whether c is JSON whitespace.
func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }
