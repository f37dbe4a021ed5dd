// The ingest fast path: a hand-rolled parser for the overwhelmingly
// common wire shape
//
//	{"series":"...","ts":<number|"RFC3339">,"value":<number>}
//
// in any key order, without encoding/json. Profiling the serving hot
// path puts ~a third of ingest CPU in the generic JSON decoder (object
// scanning, RawMessage and *float64 allocations, reflection); batches
// arrive at hundreds of thousands of lines per second, so that tax is
// the difference between holding the 500k points/s ingest bar with the
// WAL armed and not.
//
// The fast path is deliberately conservative: any escape sequence,
// duplicate or unknown key, nested value, or other irregularity makes it
// bail and the line takes the full encoding/json route instead — it is
// an optimization, never a second dialect. TestFastLineMatchesJSON
// differentially checks both parsers against each other.

package api

import (
	"bytes"
	"math"
	"strconv"
	"time"
	"unicode/utf8"
	"unsafe"
)

// viewString returns b viewed as a string without copying. The view is
// only valid while b's backing buffer is neither reused nor mutated, so
// it is strictly for handing tokens to parse functions (strconv, the
// epoch parser, time.Parse with a fixed layout) that return scalars and
// retain nothing on success; errors carrying the view are discarded
// before the buffer can be recycled. This is what keeps the fast path at
// zero allocations per line — string(tok) at these call sites was one
// heap copy per number parsed.
//
//nyquist:view
func viewString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// fastLine is the fast path's output: the series name still as raw
// bytes (interned by the caller), the parsed timestamp, and the value.
type fastLine struct {
	series []byte
	t      time.Time
	value  float64
}

// fastParseLine attempts the fast path on one trimmed, non-empty line.
// ok=false means "fall back to encoding/json", not "reject the line".
//
//nyquist:hotpath
//nyquist:view
func fastParseLine(line []byte) (out fastLine, ok bool) {
	p := lineParser{b: line}
	p.space()
	if !p.eat('{') {
		return out, false
	}
	var haveSeries, haveTS, haveValue bool
	for {
		p.space()
		key, kok := p.simpleString()
		if !kok {
			return out, false
		}
		p.space()
		if !p.eat(':') {
			return out, false
		}
		p.space()
		switch string(key) {
		case "series":
			s, sok := p.simpleString()
			if !sok || haveSeries {
				return out, false
			}
			out.series = s
			haveSeries = true
		case "ts":
			if haveTS {
				return out, false
			}
			if s, sok := p.simpleString(); sok {
				//nyquist:allow-alloc RFC3339 string timestamps take the library parse; the numeric epoch shape is the zero-alloc case
				t, err := time.Parse(time.RFC3339Nano, viewString(s))
				if err != nil {
					return out, false
				}
				out.t = t
			} else {
				tok, nok := p.number()
				if !nok {
					return out, false
				}
				t, eok := parseEpoch(tok)
				if !eok {
					return out, false
				}
				out.t = t
			}
			haveTS = true
		case "value":
			tok, nok := p.number()
			if !nok || haveValue {
				return out, false
			}
			v, vok := parseValue(tok)
			if !vok {
				return out, false
			}
			out.value = v
			haveValue = true
		default:
			return out, false
		}
		p.space()
		if p.eat(',') {
			continue
		}
		break
	}
	if !p.eat('}') {
		return out, false
	}
	p.space()
	if !p.done() {
		return out, false
	}
	return out, haveSeries && haveTS && haveValue && len(out.series) > 0
}

// lineParser is a minimal cursor over one line.
type lineParser struct {
	b []byte
	i int
}

func (p *lineParser) done() bool { return p.i >= len(p.b) }

func (p *lineParser) space() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t':
			p.i++
		default:
			return
		}
	}
}

func (p *lineParser) eat(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// simpleString consumes a double-quoted string with no escapes,
// returning its inner bytes. Any backslash — or a control byte, which
// JSON strings forbid — bails, as does invalid UTF-8: encoding/json
// rewrites bad bytes to U+FFFD, and taking them raw here would store the
// same line under a different series name than the slow path (found by
// FuzzIngestLine). The slow path knows the full grammar.
//
//nyquist:view
func (p *lineParser) simpleString() ([]byte, bool) {
	if p.i >= len(p.b) || p.b[p.i] != '"' {
		return nil, false
	}
	start := p.i + 1
	var high byte // OR of every byte: ≥ 0x80 when the string is not ASCII
	for j := start; j < len(p.b); j++ {
		switch c := p.b[j]; {
		case c == '\\' || c < 0x20:
			return nil, false
		case c == '"':
			out := p.b[start:j]
			if high >= 0x80 && !utf8.Valid(out) {
				return nil, false
			}
			p.i = j + 1
			return out, true
		default:
			high |= c
		}
	}
	return nil, false
}

// number consumes a number token and validates it against the JSON
// number grammar before returning it. Go's strconv.ParseFloat (and the
// decimal epoch parser) are laxer than JSON — they take "+1", ".5",
// "5.", "01", "Inf" — and the fast path must not become a second
// dialect where those forms sneak through, so anything outside the JSON
// grammar bails to the slow path (which rejects the whole line).
//
//nyquist:view
func (p *lineParser) number() ([]byte, bool) {
	start := p.i
	for p.i < len(p.b) {
		switch c := p.b[p.i]; {
		case c >= '0' && c <= '9', c == '-', c == '+', c == '.', c == 'e', c == 'E':
			p.i++
		default:
			goto donetok
		}
	}
donetok:
	tok := p.b[start:p.i]
	if !jsonNumber(tok) {
		return nil, false
	}
	return tok, true
}

// jsonNumber reports whether tok matches RFC 8259's number production:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func jsonNumber(tok []byte) bool {
	i, n := 0, len(tok)
	if i < n && tok[i] == '-' {
		i++
	}
	switch {
	case i < n && tok[i] == '0':
		i++
	case i < n && tok[i] >= '1' && tok[i] <= '9':
		for i < n && tok[i] >= '0' && tok[i] <= '9' {
			i++
		}
	default:
		return false
	}
	if i < n && tok[i] == '.' {
		i++
		if i >= n || tok[i] < '0' || tok[i] > '9' {
			return false
		}
		for i < n && tok[i] >= '0' && tok[i] <= '9' {
			i++
		}
	}
	if i < n && (tok[i] == 'e' || tok[i] == 'E') {
		i++
		if i < n && (tok[i] == '+' || tok[i] == '-') {
			i++
		}
		if i >= n || tok[i] < '0' || tok[i] > '9' {
			return false
		}
		for i < n && tok[i] >= '0' && tok[i] <= '9' {
			i++
		}
	}
	return i == n
}

// decimalToken reads a token jsonNumber accepted as ±m/10^k: ok when it
// has no exponent and at most 18 significant digits.
func decimalToken(tok []byte) (m uint64, k int, ok bool) {
	for _, c := range tok {
		if c > '9' || m >= 1e17 {
			return 0, 0, false // an exponent, or a 19th digit
		}
		if c >= '0' {
			m = m*10 + uint64(c-'0')
		}
	}
	if dot := bytes.IndexByte(tok, '.'); dot >= 0 {
		k = len(tok) - 1 - dot
	}
	return m, k, true
}

// pow10 is 10^k for every k whose power of ten a float64 holds exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// parseValue is strconv.ParseFloat, less ±Inf, on a token jsonNumber
// accepted. Up to 15 significant digits, 22 after the point and no exponent,
// float64(m)/10^k divides two exact float64s: ParseFloat's bits (Clinger).
//
//nyquist:view
func parseValue(tok []byte) (float64, bool) {
	if m, k, ok := decimalToken(tok); ok && m < 1e15 && k < len(pow10) {
		v := float64(m) / pow10[k]
		if tok[0] == '-' {
			v = -v
		}
		return v, true
	}
	v, err := strconv.ParseFloat(viewString(tok), 64)
	return v, err == nil && !math.IsInf(v, 0)
}

// parseEpoch is timeFromUnixSeconds on a token jsonNumber accepted. A
// whole number of seconds of at most 18 digits goes straight to
// time.Unix(sec, 0), which is what timeFromUnixSeconds returns for it.
//
//nyquist:view
func parseEpoch(tok []byte) (time.Time, bool) {
	if m, k, ok := decimalToken(tok); ok && k == 0 {
		sec := int64(m)
		if tok[0] == '-' {
			sec = -sec
		}
		return time.Unix(sec, 0), true
	}
	t, err := timeFromUnixSeconds(viewString(tok))
	return t, err == nil
}
