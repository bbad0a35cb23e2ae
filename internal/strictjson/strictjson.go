// Package strictjson decodes request bodies and spec files that must hold
// exactly one JSON value with no unknown fields.
package strictjson

import (
	"encoding/json"
	"errors"
	"io"
)

// ErrTrailingData reports input that goes on after its JSON value.
var ErrTrailingData = errors.New("trailing data after JSON object")

// Decode decodes the one JSON value r holds into v, rejecting fields v does
// not have. Anything but white space after the value is ErrTrailingData,
// a stray closing bracket included; an error reading r is returned as is.
func Decode(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	var syntax *json.SyntaxError
	switch _, err := dec.Token(); {
	case err == io.EOF:
		return nil
	case err != nil && !errors.As(err, &syntax):
		return err
	}
	return ErrTrailingData
}
