package main

import (
	"bytes"
	"encoding/json"
	"strconv"
	"unicode/utf8"

	"repro/internal/batch"
)

// compileTail closes a /compile body after its program.
const compileTail = "\n}\n"

// compileBody encodes a /compile response: cr, less its "qasm" field,
// which is res's routed program instead (see appendProgram). The
// envelope is appended field by field rather than reflected through
// encoding/json, into one buffer sized for it and a kept program. The
// bytes are json.Encoder's with a two-space indent, HTML escaping and
// a trailing newline, as TestResponseBytesOracle holds them.
func (s *server) compileBody(cr *compileResponse, res *batch.Result) []byte {
	body := make([]byte, 0, compileHeadBound(cr)+len(res.KeptProgram())+len(compileTail))
	body = s.appendProgram(appendCompileHead(body, cr), res)
	return append(body, compileTail...)
}

// appendCompileHead appends cr as the indenting encoder writes it, up
// to and including the key of its last field, `"qasm": `. The fields
// follow compileResponse's order and tags. Fleet, which only fleet
// requests carry, goes through encoding/json and json.Indent at its
// depth.
func appendCompileHead(b []byte, cr *compileResponse) []byte {
	b = append(b, "{\n"...)
	if cr.Name != "" {
		b = appendStringField(b, "name", cr.Name)
	}
	b = appendStringField(b, "device", cr.Device)
	b = appendIntField(b, "device_qubits", int64(cr.DeviceQubits))
	b = appendIntField(b, "original_gates", int64(cr.OriginalGates))
	b = appendIntField(b, "original_depth", int64(cr.OriginalDepth))
	b = appendIntField(b, "swaps", int64(cr.Swaps))
	b = appendIntField(b, "bridges", int64(cr.Bridges))
	b = appendIntField(b, "added_gates", int64(cr.AddedGates))
	b = appendIntField(b, "gates", int64(cr.Gates))
	b = appendIntField(b, "depth", int64(cr.Depth))
	b = appendIntsField(b, "initial_layout", cr.InitialLayout)
	b = appendIntsField(b, "final_layout", cr.FinalLayout)
	b = strconv.AppendBool(appendKey(b, "cache_hit"), cr.CacheHit)
	b = append(b, ",\n"...)
	b = appendStringField(b, "key", cr.Key)
	b = appendIntField(b, "elapsed_ns", cr.ElapsedNS)
	b = strconv.AppendUint(appendKey(b, "cal_version"), cr.CalVersion, 10)
	b = append(b, ",\n"...)
	if cr.Fleet != nil {
		compact, err := json.Marshal(cr.Fleet)
		if err != nil {
			panic("sabred: fleet decision does not encode: " + err.Error())
		}
		buf := bytes.NewBuffer(appendKey(b, "fleet"))
		_ = json.Indent(buf, compact, "  ", "  ") // compact is valid JSON
		b = append(buf.Bytes(), ",\n"...)
	}
	b = appendKey(b, "passes")
	switch {
	case cr.Passes == nil:
		b = append(b, "null"...)
	case len(cr.Passes) == 0:
		b = append(b, "[]"...)
	default:
		b = append(b, '[')
		for i, p := range cr.Passes {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, "\n    {\n      \"pass\": "...)
			b = appendString(b, p.Pass)
			b = append(b, ",\n      \"elapsed_ns\": "...)
			b = strconv.AppendInt(b, p.ElapsedNS, 10)
			b = append(b, ",\n      \"gates\": "...)
			b = strconv.AppendInt(b, int64(p.Gates), 10)
			b = append(b, ",\n      \"depth\": "...)
			b = strconv.AppendInt(b, int64(p.Depth), 10)
			b = append(b, "\n    }"...)
		}
		b = append(b, "\n  ]"...)
	}
	b = append(b, ",\n"...)
	return appendKey(b, "qasm")
}

// compileHeadBound bounds what appendCompileHead appends for cr, less
// a fleet decision: 640 bytes of field names, punctuation and numbers,
// up to 6 bytes per byte of an escaped string, 26 per layout entry and
// 160 per pass.
func compileHeadBound(cr *compileResponse) int {
	n := 640 + 6*(len(cr.Name)+len(cr.Device)+len(cr.Key)) + 26*(len(cr.InitialLayout)+len(cr.FinalLayout))
	for _, p := range cr.Passes {
		n += 160 + 6*len(p.Pass)
	}
	return n
}

// appendKey appends a top-level field's indent and key.
func appendKey(b []byte, key string) []byte {
	b = append(b, "  \""...)
	b = append(b, key...)
	return append(b, "\": "...)
}

func appendStringField(b []byte, key, v string) []byte {
	return append(appendString(appendKey(b, key), v), ",\n"...)
}

func appendIntField(b []byte, key string, v int64) []byte {
	return append(strconv.AppendInt(appendKey(b, key), v, 10), ",\n"...)
}

// appendIntsField appends an int array one element per line, null for
// a nil slice and [] for an empty one.
func appendIntsField(b []byte, key string, v []int) []byte {
	b = appendKey(b, key)
	switch {
	case v == nil:
		b = append(b, "null"...)
	case len(v) == 0:
		b = append(b, "[]"...)
	default:
		b = append(b, '[')
		for i, x := range v {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(append(b, "\n    "...), int64(x), 10)
		}
		b = append(b, "\n  ]"...)
	}
	return append(b, ",\n"...)
}

// appendString appends s as a JSON string, escaped as encoding/json
// escapes it by default: the quote, the backslash and control bytes,
// the HTML-sensitive <, > and &, U+2028 and U+2029, and each byte of
// invalid UTF-8 as U+FFFD.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, `\b`...)
			case '\f':
				b = append(b, `\f`...)
			case '\n':
				b = append(b, `\n`...)
			case '\r':
				b = append(b, `\r`...)
			case '\t':
				b = append(b, `\t`...)
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}
