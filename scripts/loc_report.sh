#!/bin/sh
# Table 8-style lines-of-code breakdown of this repository.
cd "$(dirname "$0")/.."
echo "component            code   tests"
for d in support fhe onnx nn air passes codegen expert driver service; do
  code=$(cat src/$d/*.h src/$d/*.cpp 2>/dev/null | wc -l)
  printf "%-18s %7d\n" "src/$d" "$code"
done
printf "%-18s %7d\n" "tests" "$(find tests -name '*.cpp' | xargs cat | wc -l)"
printf "%-18s %7d\n" "bench" "$(find bench -name '*.cpp' -o -name '*.h' | xargs cat | wc -l)"
printf "%-18s %7d\n" "examples" "$(find examples -name '*.cpp' | xargs cat | wc -l)"
printf "%-18s %7d\n" "total" "$(find src tests bench examples -name '*.cpp' -o -name '*.h' | xargs cat | wc -l)"
