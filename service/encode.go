package service

import (
	"encoding/json"
	"slices"
)

// The two wire types that embed a document have an encoder each:
// SubmitRequest carries the problem document and JobStatus the result
// document. A document is encoded once, where it is made (the client's
// ftdse.Problem, the node's encodeResult), and every later write copies
// it. json.Marshal would instead validate and compact each embedded
// json.RawMessage again on every hop. The encoders copy it verbatim
// whenever that compaction cannot change it, so every body stays byte
// for byte what json.Marshal gives.
//
// They are deliberately not MarshalJSON methods: encoding/json would
// compact their output once more, and their own json.Marshal of the
// other fields would recurse.

// AppendJSON appends the bytes json.Marshal(v) gives to dst. A
// JobStatus, alone or in a BatchResponse, goes through AppendStatus, so
// the result documents it embeds are copied rather than encoded again.
// The node's and the coordinator's handlers encode every body with it.
func AppendJSON(dst []byte, v any) ([]byte, error) {
	switch v := v.(type) {
	case JobStatus:
		return AppendStatus(dst, v)
	case BatchResponse:
		if v.Jobs == nil {
			break
		}
		n := len(dst)
		dst = append(dst, `{"jobs":[`...)
		for i, st := range v.Jobs {
			if i > 0 {
				dst = append(dst, ',')
			}
			var err error
			if dst, err = AppendStatus(dst, st); err != nil {
				return dst[:n], err
			}
		}
		return append(dst, "]}"...), nil
	}
	enc, err := json.Marshal(v)
	switch {
	case err != nil:
		return dst, err
	case dst == nil:
		return enc, nil // nothing to append to, so nothing to copy
	}
	return append(dst, enc...), nil
}

// AppendRequest appends the JSON encoding of req to dst: exactly the
// bytes json.Marshal(req) gives. A non-nil doc supplies the problem
// document in place of req.Problem by appending it to its argument, as
// ftdse.Problem.AppendDocument does, so the document is copied once,
// straight into the body. On error dst is returned unchanged.
func AppendRequest(dst []byte, req SubmitRequest, doc func([]byte) ([]byte, error)) ([]byte, error) {
	problem := req.Problem
	req.Problem = nil
	// Problem is the first field, so the other fields follow its null:
	// {"problem":null,"options":{...},...}.
	rest, err := json.Marshal(req)
	if err != nil {
		return dst, err
	}
	const key, null = len(`{"problem":`), len(`{"problem":null`)
	n := len(dst)
	dst = slices.Grow(dst, len(rest)+len(problem))
	dst = append(dst, rest[:key]...)
	if doc == nil {
		dst, err = appendRaw(dst, problem)
	} else {
		at := len(dst)
		if dst, err = doc(dst); err == nil && !verbatim(dst[at:]) {
			dst, err = appendRaw(dst[:at], dst[at:])
		}
	}
	if err != nil {
		return dst[:n], err
	}
	return append(dst, rest[null:]...), nil
}

// AppendStatus appends the JSON encoding of st to dst: exactly the
// bytes json.Marshal(st) gives. On error dst is returned unchanged.
func AppendStatus(dst []byte, st JobStatus) ([]byte, error) {
	result := st.Result
	st.Result = nil
	head, err := json.Marshal(st)
	if err != nil {
		return dst, err
	}
	if len(result) == 0 { // omitempty drops the field
		return append(dst, head...), nil
	}
	// Result is the last field, so it goes before the closing brace.
	const key = `,"result":`
	n := len(dst)
	dst = slices.Grow(dst, len(head)+len(key)+len(result))
	dst = append(append(dst, head[:len(head)-1]...), key...)
	if dst, err = appendRaw(dst, result); err != nil {
		return dst[:n], err
	}
	return append(dst, '}'), nil
}

// appendRaw appends raw as encoding/json encodes a json.RawMessage:
// verbatim when compaction cannot change it, otherwise as json.Marshal
// writes it (compacted and HTML-escaped, "null" for nil, an error for
// an empty or invalid value).
func appendRaw(dst, raw []byte) ([]byte, error) {
	if verbatim(raw) {
		return append(dst, raw...), nil
	}
	enc, err := json.Marshal(json.RawMessage(raw))
	if err != nil {
		return dst, err
	}
	return append(dst, enc...), nil
}

// verbatim reports whether encoding/json copies the non-empty JSON
// value raw unchanged when it marshals it as a json.RawMessage. Its
// compaction drops whitespace outside strings and, inside them,
// rewrites <, > and & and U+2028 and U+2029 (E2 80 A8, E2 80 A9) as
// \u escapes; a value holding none of those bytes, and no 0xE2 byte at
// all, is already in that form. Every caller holds bytes this process
// encoded or a JSON decoder accepted: raw is assumed to be valid JSON.
func verbatim(raw []byte) bool {
	if len(raw) == 0 {
		return false
	}
	for _, c := range raw {
		if rewritten[c] {
			return false
		}
	}
	return true
}

// rewritten marks the bytes verbatim rejects.
var rewritten = [256]bool{' ': true, '\t': true, '\r': true, '\n': true, '<': true, '>': true, '&': true, 0xE2: true}
