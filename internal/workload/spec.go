package workload

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"soma/internal/strictjson"
)

// ParseSpec decodes a declarative JSON scenario spec, fills defaults
// (Normalize) and validates the result. Unknown fields are rejected so typos
// fail loudly instead of silently composing the wrong scenario.
//
// A minimal spec:
//
//	{
//	  "name": "multi-tenant-cnn",
//	  "arrival": "interleaved",
//	  "components": [
//	    {"model": "resnet50"},
//	    {"model": "mobilenetv2", "batch": 4, "weight": 2}
//	  ]
//	}
func ParseSpec(data []byte) (Scenario, error) {
	var s Scenario
	if err := strictjson.Decode(bytes.NewReader(data), &s); err != nil {
		return Scenario{}, fmt.Errorf("workload: bad scenario spec: %w", err)
	}
	s.Normalize()
	if err := s.Validate(); err != nil {
		return Scenario{}, err
	}
	return s, nil
}

// MarshalSpec renders the scenario as its canonical indented JSON spec.
// Parse -> Marshal -> Parse is lossless: Normalize runs before encoding, so
// every default is explicit and the round-trip is a fixed point.
func (s Scenario) MarshalSpec() ([]byte, error) {
	s.Components = append([]Component(nil), s.Components...)
	s.Normalize()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// SpecSHA256 digests the canonical spec; two scenarios with equal digests
// compose identical graphs, which makes the digest usable as a cache scope
// for composed-schedule evaluations.
func (s Scenario) SpecSHA256() (string, error) {
	b, err := s.MarshalSpec()
	if err != nil {
		return "", err
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:]), nil
}
