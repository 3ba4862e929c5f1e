package extsort

import "slices"

// radixCutoff is the length below which sortKeys leaves the keys to
// slices.Sort: clearing and summing the digit counters costs more than
// the comparisons it saves.
const radixCutoff = 512

// sortKeys sorts keys ascending. At radixCutoff keys and above it needs
// cap(scratch) >= len(keys) and may leave the sorted keys in
// scratch[:len(keys)] instead of in keys; it reports which.
func sortKeys(keys, scratch []uint64) (inScratch bool) {
	if len(keys) < radixCutoff {
		slices.Sort(keys)
		return false
	}
	return radixSort(keys, scratch)
}

// radixSort is an LSD radix sort on the eight bytes of each key. One pass
// over the keys fills all eight digit histograms; a digit on which every
// key agrees moves nothing and is skipped, so node ids below 2^24 cost six
// scatter passes, not eight. The passes alternate between keys and
// scratch; the result reports whether the last one landed in scratch.
func radixSort(keys, scratch []uint64) (inScratch bool) {
	if len(keys) == 0 {
		return false
	}
	var count [8][256]int
	for _, k := range keys {
		count[0][byte(k)]++
		count[1][byte(k>>8)]++
		count[2][byte(k>>16)]++
		count[3][byte(k>>24)]++
		count[4][byte(k>>32)]++
		count[5][byte(k>>40)]++
		count[6][byte(k>>48)]++
		count[7][byte(k>>56)]++
	}
	src, dst := keys, scratch[:len(keys)]
	for d := range count {
		c := &count[d]
		shift := 8 * uint(d)
		if c[byte(src[0]>>shift)] == len(src) {
			continue
		}
		sum := 0
		for i, n := range c {
			c[i] = sum
			sum += n
		}
		for _, k := range src {
			b := byte(k >> shift)
			dst[c[b]] = k
			c[b]++
		}
		src, dst = dst, src
		inScratch = !inScratch
	}
	return inScratch
}
