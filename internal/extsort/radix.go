package extsort

import (
	"math"
	"slices"
)

// radixCutoff is the length below which sortKeys leaves the keys to
// slices.Sort: clearing and summing the digit counters costs more than
// the comparisons it saves.
const radixCutoff = 512

// digitBits is the radix sort's digit: 12 bits, 4,096 counters a digit.
const digitBits = 12

// sortKeys sorts keys ascending; every key must be below 2^width. At
// radixCutoff keys and above it needs cap(scratch) >= len(keys) and may
// leave the sorted keys in scratch[:len(keys)] instead of in keys; it
// reports which.
func sortKeys(keys, scratch []uint64, width uint) (inScratch bool) {
	if len(keys) < radixCutoff || len(keys) > math.MaxUint32 {
		slices.Sort(keys)
		return false
	}
	return radixSort(keys, scratch, width)
}

// radixSort is an LSD radix sort on the low width bits of each key, the
// bits above them zero, in 12-bit digits, with 32-bit counters (fewer
// than 2^32 keys). One pass over the keys fills every digit's histogram;
// a digit on which every key agrees moves nothing and is skipped. Keys of
// two ids below 2^18 (up to 36 bits) cost at most three scatter passes,
// full 64-bit keys six. The passes alternate between keys and scratch;
// the result reports whether the last one landed in scratch.
func radixSort(keys, scratch []uint64, width uint) (inScratch bool) {
	if len(keys) == 0 {
		return false
	}
	const mask = 1<<digitBits - 1
	digits := int(width+digitBits-1) / digitBits
	var count [(64 + digitBits - 1) / digitBits][1 << digitBits]uint32
	if digits <= 3 {
		for _, k := range keys {
			count[0][k&mask]++
			count[1][k>>digitBits&mask]++
			count[2][k>>(2*digitBits)&mask]++
		}
	} else {
		for _, k := range keys {
			for d := range count {
				count[d][k>>(digitBits*uint(d))&mask]++
			}
		}
	}
	src, dst := keys, scratch[:len(keys)]
	for d := range digits {
		c := &count[d]
		shift := digitBits * uint(d)
		if int(c[src[0]>>shift&mask]) == len(src) {
			continue
		}
		var sum uint32
		for i, n := range c {
			c[i] = sum
			sum += n
		}
		for _, k := range src {
			b := k >> shift & mask
			dst[c[b]] = k
			c[b]++
		}
		src, dst = dst, src
		inScratch = !inScratch
	}
	return inScratch
}
