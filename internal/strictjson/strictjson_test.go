package strictjson

import (
	"errors"
	"strings"
	"testing"
)

type spec struct {
	Models []string `json:"models"`
}

// TestDecode: one object, with or without surrounding white space, decodes;
// a second value, any other trailing text, or a stray closing bracket is
// ErrTrailingData; an unknown field or a truncated object is a decode error.
func TestDecode(t *testing.T) {
	for _, in := range []string{`{"models":["resnet50"]}`, " {\"models\":[]}\n\t "} {
		var s spec
		if err := Decode(strings.NewReader(in), &s); err != nil {
			t.Errorf("Decode(%q) = %v", in, err)
		}
	}
	for _, in := range []string{`{"models":["resnet50"]}}`, `{"models":["resnet50"]}]`,
		`{"models":[]} {"models":[]}`, `{"models":[]} 1`, `{"models":[]} trailing`, `{"models":[]},`} {
		var s spec
		if err := Decode(strings.NewReader(in), &s); !errors.Is(err, ErrTrailingData) {
			t.Errorf("Decode(%q) = %v, want ErrTrailingData", in, err)
		}
	}
	for _, in := range []string{`{"modles":[]}`, `{"models":[`, ``} {
		var s spec
		if err := Decode(strings.NewReader(in), &s); err == nil || errors.Is(err, ErrTrailingData) {
			t.Errorf("Decode(%q) = %v, want a decode error", in, err)
		}
	}
}
