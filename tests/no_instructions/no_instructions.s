# A corpus program with comments and no instructions: it has nothing
# to run, so the assembler rejects it and every command that loads it
# reports an assembly error (see tools/CMakeLists.txt).
