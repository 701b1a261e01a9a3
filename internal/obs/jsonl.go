package obs

import "strconv"

// AppendEventJSON appends one event's JSON Lines object (no trailing
// newline) to buf:
//
//	{"t":12.345678901,"kind":"fbcc.trigger","sub":0,"buffer_bytes":19456,"gamma_bytes":11832.5,"streak":10}
//
// "t" is the simulation instant in seconds, "kind" the dotted kind name,
// "sub" the sub-stream id, and the remaining keys come from the kind's
// field metadata (unused trailing values are omitted). Numbers use Go's
// shortest-roundtrip float formatting, so a deterministic stream renders
// deterministically. JSONL is a view of the binary stream, not a second
// format: poi360-trace renders each event as it decodes.
func AppendEventJSON(buf []byte, e *Event) []byte {
	meta := &kinds[e.Kind]
	buf = append(buf, `{"t":`...)
	buf = strconv.AppendFloat(buf, e.At.Seconds(), 'f', -1, 64)
	buf = append(buf, `,"kind":"`...)
	buf = append(buf, meta.name...)
	buf = append(buf, `","sub":`...)
	buf = strconv.AppendInt(buf, int64(e.Sub), 10)
	vals := [4]float64{e.A, e.B, e.C, e.D}
	for i, name := range meta.fields {
		if name == "" {
			break
		}
		buf = append(buf, ',', '"')
		buf = append(buf, name...)
		buf = append(buf, '"', ':')
		buf = strconv.AppendFloat(buf, vals[i], 'f', -1, 64)
	}
	return append(buf, '}')
}
