package grammar

// PruneDiff exposes the Prune-versus-refPrune differential to the
// external test package, whose inputs come from the compressors.
var PruneDiff = pruneDiff
