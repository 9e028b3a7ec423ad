// Package cpufeat reports the CPU features the assembly kernels of linalg
// and trainsim need, decided once at start-up. It is empty off amd64,
// where only the portable Go loops are built.
package cpufeat
