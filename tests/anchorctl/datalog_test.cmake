# Runs `anchorctl datalog` on the committed fixtures and checks its exit
# code and output:
#
#   cmake -DANCHORCTL=<anchorctl> -DDATA_DIR=<this dir> -P datalog_test.cmake
function(expect_query program query expect_code expect_regex)
  execute_process(
    COMMAND "${ANCHORCTL}" datalog "${DATA_DIR}/${program}" --query "${query}"
    RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE errout)
  if(NOT code EQUAL ${expect_code})
    message(FATAL_ERROR
      "${program} ${query}: exit ${code}, expected ${expect_code}\n${out}${errout}")
  endif()
  if(NOT "${out}${errout}" MATCHES "${expect_regex}")
    message(FATAL_ERROR
      "${program} ${query}: output does not match '${expect_regex}':\n${out}${errout}")
  endif()
endfunction()

# A ground query that holds, and one that does not.
expect_query(reach.dl "reach(a, c)?" 0 "^yes\\.\n$")
expect_query(reach.dl "reach(c, a)?" 1 "^no\\.\n$")
# An open query with a repeated variable: the three nodes on a cycle.
expect_query(reach.dl "reach(X, X)?" 0 "^(X = [cde]\n)(X = [cde]\n)(X = [cde]\n)$")
foreach(node c d e)
  expect_query(reach.dl "reach(X, X)?" 0 "X = ${node}\n")
endforeach()
# Constants and wildcards mixed with a binding.
expect_query(reach.dl "reach(a, Y)?" 0 "^(Y = [bc]\n)(Y = [bc]\n)$")
# A program the compiler rejects fails with its error.
expect_query(unsafe.dl "p(1, 2)?" 1 "unsafe")
