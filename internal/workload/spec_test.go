package workload

import (
	"bytes"
	"reflect"
	"testing"
)

// TestSpecRoundTrip: parse -> marshal -> parse is lossless, and marshal is a
// fixed point (canonical bytes).
func TestSpecRoundTrip(t *testing.T) {
	minimal := []byte(`{
		"name": "mix",
		"components": [
			{"model": "resnet50"},
			{"name": "tenant-b", "model": "mobilenetv2", "batch": 4, "weight": 2}
		]
	}`)
	s1, err := ParseSpec(minimal)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := s1.MarshalSpec()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := ParseSpec(b1)
	if err != nil {
		t.Fatalf("re-parsing canonical spec: %v", err)
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("round trip changed the scenario:\n%+v\n%+v", s1, s2)
	}
	b2, err := s2.MarshalSpec()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("canonical marshal is not a fixed point:\n%s\n%s", b1, b2)
	}

	// Defaults became explicit.
	if s1.Arrival != Interleaved || s1.Components[0].Name != "resnet50" ||
		s1.Components[0].Batch != 1 || s1.Components[0].Weight != 1 {
		t.Fatalf("defaults not normalized: %+v", s1)
	}
}

// TestBuiltinSpecsRoundTrip: every built-in scenario's spec round-trips.
func TestBuiltinSpecsRoundTrip(t *testing.T) {
	for _, sc := range Builtins() {
		b, err := sc.MarshalSpec()
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		got, err := ParseSpec(b)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		if !reflect.DeepEqual(sc, got) {
			t.Fatalf("%s: round trip changed the scenario", sc.Name)
		}
	}
}

func TestParseSpecRejects(t *testing.T) {
	cases := map[string]string{
		"unknown field": `{"name":"x","components":[{"model":"resnet50"}],"priority":"high"}`,
		"unknown model": `{"name":"x","components":[{"model":"alexnet"}]}`,
		"bad arrival":   `{"name":"x","arrival":"lifo","components":[{"model":"resnet50"}]}`,
		"not json":      `scenario: yaml`,
		"no components": `{"name":"x"}`,
		"trailing data": `{"name":"x","components":[{"model":"resnet50"}]}{"name":"y"}`,
		"stray brace":   `{"name":"x","components":[{"model":"resnet50"}]}}`,
		"stray bracket": `{"name":"x","components":[{"model":"resnet50"}]}]`,
	}
	for name, in := range cases {
		if _, err := ParseSpec([]byte(in)); err == nil {
			t.Errorf("%s: ParseSpec accepted %s", name, in)
		}
	}
}

func TestSpecSHA256DistinguishesScenarios(t *testing.T) {
	a, err := Builtin("multi-tenant-cnn")
	if err != nil {
		t.Fatal(err)
	}
	b := a
	b.Components = append([]Component(nil), a.Components...)
	b.Components[0].Batch = 16
	ha, err := a.SpecSHA256()
	if err != nil {
		t.Fatal(err)
	}
	hb, err := b.SpecSHA256()
	if err != nil {
		t.Fatal(err)
	}
	if ha == hb {
		t.Fatal("different scenarios must digest differently")
	}
	ha2, err := a.SpecSHA256()
	if err != nil {
		t.Fatal(err)
	}
	if ha != ha2 {
		t.Fatal("digest must be deterministic")
	}
}
