package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/ftdse"
)

// Fingerprint computes the canonical identity of one solve request: a
// SHA-256 over the canonical ftdse.WriteProblem encoding of the problem
// and the fixed-order rendering of the normalized solver options. It is
// the key of the service's result cache.
//
// The scheme leans on two guarantees pinned by tests elsewhere in the
// module: the problem encoding is canonical (WriteProblem → ReadProblem
// → WriteProblem is byte-identical, so re-submissions of a document and
// of its round-tripped form hash alike), and untimed solves are
// deterministic — for every engine, including the seeded stochastic
// ones and the racing portfolio, whose winner is selected by (cost,
// racer order) after the race — so a cached result is exactly what a
// re-solve would produce. Options are part of the key because they
// change the answer: the engine name and seed participate, while the
// worker count is excluded for untimed requests, which are
// worker-independent by the solver's determinism contract. A portfolio
// race with StopWhenSchedulable is the timing-dependent exception —
// the first schedulable incumbent cancels the race mid-flight — so,
// like a timed request, it keeps its worker count in the key and its
// cached answer is best-effort for exactly that configuration.
//
// A submission's warm start (SubmitRequest.WarmStart) is deliberately
// NOT part of the fingerprint: it only changes the search's starting
// point, never what the submitter asked for, so failover resubmissions
// carrying a checkpoint coalesce with plain duplicates and later
// identical submissions hit the cache. The price is that a cached
// warm-started result may reflect a different — by construction never
// worse than the warm start — trajectory than a cold solve; DESIGN.md
// §13 documents the trade.
func Fingerprint(p ftdse.Problem, o SolveOptions) (string, error) {
	no, err := o.normalized()
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	if err := ftdse.WriteProblem(&buf, p); err != nil {
		return "", fmt.Errorf("service: fingerprinting problem: %w", err)
	}
	sum := docKey(buf.Bytes(), no)
	return "sha256:" + hex.EncodeToString(sum[:]), nil
}

// docKey is SHA-256 over doc, a 0x00 byte and the canonical rendering
// of the normalized options: over the canonical problem document it is
// the fingerprint, over a document as received the ProblemMemo key. The
// input is laid out in a pooled buffer.
func docKey(doc []byte, no SolveOptions) [sha256.Size]byte {
	buf := bodies.Get().(*[]byte)
	b := append(append((*buf)[:0], doc...), 0)
	b = no.appendCanonical(b)
	sum := sha256.Sum256(b)
	if cap(b) <= maxPooledBody {
		*buf = b
		bodies.Put(buf)
	}
	return sum
}

// ProblemMemo maps a submitted problem document to its parsed problem
// and its fingerprint, so a byte-identical resubmission reaches the
// result cache (or the in-flight job it coalesces onto) without
// ReadProblem and without the WriteProblem re-encode inside
// Fingerprint. The node (Service) and the cluster coordinator each keep
// one. It is safe for concurrent use.
//
// The key is a SHA-256 over the document bytes as received, a 0x00
// byte and the normalized options' canonical rendering — the same
// string Fingerprint hashes, so requests that share a fingerprint
// through option normalization (untimed requests differing only in
// worker count, say) share an entry too. The hash is cryptographic on
// purpose: a collision would hand one client another problem's cached
// result. The value is a pure function of the key, so the memo is exact
// by construction. Only successful parses are stored: a malformed or
// invalid document is decoded, and rejected with the same error, on
// every submission. A byte-different but equivalent document (indented
// rather than compact, say) misses the memo and still hits the result
// cache through its fingerprint.
//
// Memoized problems are shared by every job submitted with the same
// document. That is safe because solves only read their problem
// (Solver.Solve is safe for concurrent use on one problem).
type ProblemMemo struct {
	docs *lru[[sha256.Size]byte, parsedDoc]
}

// parsedDoc is one memoized document: its parse and its fingerprint.
type parsedDoc struct {
	problem ftdse.Problem
	fp      string
}

// NewProblemMemo returns a memo holding at most size documents, least
// recently used first out; size <= 0 stores nothing.
func NewProblemMemo(size int) *ProblemMemo {
	return &ProblemMemo{docs: newLRU[[sha256.Size]byte, parsedDoc](size)}
}

// Resolve parses a problem document and fingerprints it under opts,
// returning exactly what ftdse.ReadProblem followed by Fingerprint
// return, errors included, from the memo when it has seen the document
// under equivalent options before.
func (m *ProblemMemo) Resolve(doc []byte, opts SolveOptions) (ftdse.Problem, string, error) {
	no, err := opts.normalized()
	if err != nil {
		// No key without options; the uncached path reports a malformed
		// document before the options' own error.
		return readAndFingerprint(doc, opts)
	}
	return m.resolve(doc, no)
}

// resolve is Resolve over options already normalized, as Prepare has
// them.
func (m *ProblemMemo) resolve(doc []byte, no SolveOptions) (ftdse.Problem, string, error) {
	key := docKey(doc, no)
	if d, ok := m.docs.get(key); ok {
		return d.problem, d.fp, nil
	}
	prob, fp, err := readAndFingerprint(doc, no)
	if err != nil {
		return ftdse.Problem{}, "", err
	}
	m.docs.put(key, parsedDoc{problem: prob, fp: fp})
	return prob, fp, nil
}

// readAndFingerprint is the uncached path: decode, then Fingerprint.
func readAndFingerprint(doc []byte, opts SolveOptions) (ftdse.Problem, string, error) {
	prob, err := ftdse.ReadProblem(bytes.NewReader(doc))
	if err != nil {
		return ftdse.Problem{}, "", err
	}
	fp, err := Fingerprint(prob, opts)
	if err != nil {
		return ftdse.Problem{}, "", err
	}
	return prob, fp, nil
}
