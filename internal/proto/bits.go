package proto

import (
	"fmt"
	"math/bits"
	"reflect"
)

// Strict-CONGEST message sizing. The CONGEST model allows O(log n)-bit
// messages; this file provides the two halves of enforcing that budget in
// simulation: an estimator of a message's information content in bits
// (plugged into simnet.Config.MessageBits) and the calibrated budget
// derived from the graph (simnet.Config.MaxMessageBits).

// MessageBits estimates the wire size of a message in bits: its tag plus
// its body, with the body sized by information content. Integers cost a
// sign bit plus the bits of their magnitude, booleans one bit, structs the
// sum of their fields, and variable-length containers (slices, maps,
// strings) a length header plus their elements — so a payload smuggling a
// Θ(n)-sized slice is charged Θ(n) bits and trips the strict budget instead
// of hiding inside "one message". The signature matches
// simnet.Config.MessageBits.
func MessageBits(tag uint64, body any) int64 {
	return uintBits(tag) + valueBits(reflect.ValueOf(body))
}

// lenHeader is the charge for a variable-length container's length field.
const lenHeader = 8

func valueBits(v reflect.Value) int64 {
	if !v.IsValid() { // nil interface: presence bit only
		return 1
	}
	switch v.Kind() {
	case reflect.Bool:
		return 1
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		n := v.Int()
		if n < 0 {
			n = -n
		}
		return 1 + uintBits(uint64(n))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return uintBits(v.Uint())
	case reflect.Float32, reflect.Float64:
		return 64
	case reflect.String:
		return lenHeader + 8*int64(v.Len())
	case reflect.Struct:
		var total int64
		for i := 0; i < v.NumField(); i++ {
			total += valueBits(v.Field(i))
		}
		return total
	case reflect.Slice, reflect.Array:
		total := int64(lenHeader)
		for i := 0; i < v.Len(); i++ {
			total += valueBits(v.Index(i))
		}
		return total
	case reflect.Map:
		total := int64(lenHeader)
		iter := v.MapRange()
		for iter.Next() {
			total += valueBits(iter.Key()) + valueBits(iter.Value())
		}
		return total
	case reflect.Ptr, reflect.Interface:
		if v.IsNil() {
			return 1
		}
		return 1 + valueBits(v.Elem())
	default:
		panic(fmt.Sprintf("proto: MessageBits cannot size a %s", v.Kind()))
	}
}

func uintBits(u uint64) int64 {
	if u == 0 {
		return 1
	}
	return int64(bits.Len64(u))
}

// BitBudget returns the strict-CONGEST per-message budget for a graph with
// n nodes and maximum edge weight maxW: a fixed number of O(log(n·maxW))-bit
// words. Distances (and the recursion's subproblem tags) need log(n·maxW)
// bits each, and the largest protocol payloads are structs of a handful of
// such fields, so the budget is word·Words with generous headroom — like
// the harness envelopes, the constants are calibrated once against the
// seed implementation and changing them is a deliberate act.
func BitBudget(n int, maxW int64) int64 {
	if n < 2 {
		n = 2
	}
	if maxW < 1 {
		maxW = 1
	}
	word := int64(bits.Len64(uint64(n)*uint64(maxW))) + 2 // one distance-sized field
	const words = 8                                       // largest payload is ~3 words (tag + a few fields); ~2.5× headroom
	return words * word
}
