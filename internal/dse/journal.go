package dse

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

// The journal is a JSONL checkpoint of a running sweep: line 1 is a header
// binding the file to one spec (by SHA-256 digest) and grid size, every
// following line is one Scrubbed Row, committed strictly in point-index
// order. In-order commit is what makes the format restartable with a plain
// prefix check: however the worker pool interleaved, an interrupted journal
// is always rows 0..k-1, so a resume re-runs exactly the points >= k and the
// final file is byte-identical to an uninterrupted run's.

// journalVersion guards the on-disk row schema.
const journalVersion = 1

type journalHeader struct {
	Version int `json:"journal_version"`
	// Sweep is the spec's name (informational; the digest is the binding).
	Sweep      string `json:"sweep,omitempty"`
	SpecSHA256 string `json:"spec_sha256"`
	Points     int    `json:"points"`
}

// journalWriter is the append side of the checkpoint file. Run and
// RunAdaptive own it: whatever executor solves the points, rows reach the
// file only through the in-order commit in run.execute.
type journalWriter struct {
	f *os.File
	w *bufio.Writer
}

// loadJournal reads an existing journal, validating the header against the
// sweep digest and returning the committed row prefix together with the raw
// line bytes (re-written verbatim on resume, so loaded rows never go through
// a re-marshal). A missing file returns no rows and no error. A header
// bound to a different spec or grid size is an error - resuming must never
// silently mix two sweeps. A torn tail (partial last line from a killed
// process) is discarded; everything before it is kept. Row k of the file
// must satisfy valid(k, row) - the exhaustive and adaptive row sequences
// differ - and the first row that does not ends the trusted prefix.
func loadJournal(path, digest string, points int, valid func(k int, row Row) bool) (rows []Row, lines [][]byte, err error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, err
	}
	raw := bytes.Split(data, []byte("\n"))
	if len(raw) == 0 || len(bytes.TrimSpace(raw[0])) == 0 {
		return nil, nil, nil // empty file: treat as fresh
	}
	var hdr journalHeader
	if err := json.Unmarshal(raw[0], &hdr); err != nil {
		return nil, nil, fmt.Errorf("dse: journal %s: bad header: %w", path, err)
	}
	if hdr.Version != journalVersion {
		return nil, nil, fmt.Errorf("dse: journal %s: version %d, want %d", path, hdr.Version, journalVersion)
	}
	if hdr.SpecSHA256 != digest || hdr.Points != points {
		return nil, nil, fmt.Errorf("dse: journal %s belongs to a different sweep (spec %s.. with %d points)",
			path, shortDigest(hdr.SpecSHA256), hdr.Points)
	}
	for _, line := range raw[1:] {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var row Row
		if err := json.Unmarshal(line, &row); err != nil {
			break // torn tail: keep the valid prefix
		}
		if !valid(len(rows), row) {
			break // out-of-order or out-of-range: distrust the tail
		}
		rows = append(rows, row)
		lines = append(lines, line)
	}
	return rows, lines, nil
}

func shortDigest(d string) string {
	if len(d) > 12 {
		return d[:12]
	}
	return d
}

// openJournal creates (or, with kept prefix lines, rewrites) the journal and
// leaves it positioned for appending row len(lines). Rewriting the verbatim
// prefix keeps resumed files byte-identical to uninterrupted runs even if
// the previous process died mid-line. The rewrite goes through a temp file
// renamed into place only after the prefix is flushed, so a crash during
// resume never costs the points the previous run already paid for.
func openJournal(path string, sw Sweep, digest string, points int, lines [][]byte) (*journalWriter, error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*journalWriter, error) {
		f.Close()
		os.Remove(tmp)
		return nil, err
	}
	j := &journalWriter{f: f, w: bufio.NewWriter(f)}
	hdr, err := json.Marshal(journalHeader{Version: journalVersion, Sweep: sw.Name,
		SpecSHA256: digest, Points: points})
	if err != nil {
		return fail(err)
	}
	if _, err := j.w.Write(append(hdr, '\n')); err != nil {
		return fail(err)
	}
	for _, line := range lines {
		if _, err := j.w.Write(append(line, '\n')); err != nil {
			return fail(err)
		}
	}
	if err := j.w.Flush(); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	// The open handle follows the rename: appends keep landing in the (now
	// canonical) journal file.
	if err := os.Rename(tmp, path); err != nil {
		return fail(err)
	}
	return j, nil
}

// appendRow commits one (already Scrubbed) row and flushes it to the OS, so
// a kill right after a point completes loses at most the in-flight points.
func (j *journalWriter) appendRow(row Row) error {
	data, err := json.Marshal(row)
	if err != nil {
		return err
	}
	if _, err := j.w.Write(append(data, '\n')); err != nil {
		return err
	}
	return j.w.Flush()
}

// close flushes and closes the journal file (a no-op without one).
func (j *journalWriter) close() error {
	if j == nil {
		return nil
	}
	if err := j.w.Flush(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}
